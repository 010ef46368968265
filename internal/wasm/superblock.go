package wasm

import "sort"

// The superblock tier (PR 7) sits on top of the register IR: innermost
// self-loop regions — a conditional exit test at the header, a body, an
// induction increment, and a back-edge br — that match an idiom template
// (superIdiom) are compiled into a single Go closure (a "trace") entered
// through sOpTraceEnter. A template is one of a small set of
// PolyBench-shaped bodies (fma-update, min-add, scaled stencil sum, fill,
// reduce, ...) whose memory accesses are affine in the induction
// variable. It proves once per loop trip that every access span is in
// bounds and on hot EPC-TLB pages, and then runs the entire trip raw, or
// falls to a checked per-iteration loop that replays the exact
// program-order memLoad*/memStore* sequence when the trip guard fails.
//
// Every other loop is left to runRegBody, the one executor of the
// register IR (counted in SuperStats.Bailouts). Only the header pc is
// patched, so a forward jump into the middle of a traced region still
// executes through runRegBody and re-enters the trace at the next
// back-edge.

// SuperStats counts superblock-tier translation outcomes for one module.
// Reported by Compiled.SuperStats and asserted by
// super_idiom_test.go and polybench's idiom census so silent coverage
// loss (loops quietly falling back to the register interpreter) is
// visible.
type SuperStats struct {
	Funcs    int // functions examined in register form
	RegBail  int // functions that had no register form (run fused, untraced)
	Loops    int // innermost self-loop regions discovered
	Idioms   int // loops compiled to idiom templates
	Bailouts int // loops left to the register interpreter
}

// superTrace executes one compiled loop trace. r is the frame register
// file; the return values are the next absolute pc (always outside the
// region on normal exit) and the number of retired instructions to
// charge, which includes the trace-entry dispatch itself.
type superTrace func(in *Instance, r []uint64, mem *Memory) (int, int64)

// translateSuper derives the superblock form of one register-form
// function: a copy with hot self-loops patched to sOpTraceEnter and the
// trace table filled in. Functions without a register body pass through
// unchanged (they run in their fused form, untraced).
func translateSuper(fn *compiledFunc, st *SuperStats) compiledFunc {
	out := *fn
	if !fn.reg {
		st.RegBail++
		return out
	}
	st.Funcs++
	code := fn.code

	// A region is a back-edge br and its target: [start..end] with
	// code[end] = br start. Multiple back-edges to one header are one
	// loop — keep the widest extent per start.
	type region struct{ start, end int }
	widest := map[int]int{}
	for pc := range code {
		if code[pc].op == rOpBr && int(code[pc].a) <= pc {
			s := int(code[pc].a)
			if pc > widest[s+1]-1 { // widest[s+1] is 0 when absent
				widest[s+1] = pc + 1
			}
		}
	}
	var regions []region
	for s1, e1 := range widest {
		regions = append(regions, region{s1 - 1, e1 - 1})
	}
	sort.Slice(regions, func(a, b int) bool { return regions[a].start < regions[b].start })

	// Only innermost regions become traces: a region whose extent holds
	// another region's header is an outer loop and is left alone (its
	// body re-enters the inner trace every iteration).
	inner := regions[:0]
	for _, rg := range regions {
		innermost := true
		for _, o := range regions {
			if o.start > rg.start && o.start <= rg.end {
				innermost = false
				break
			}
		}
		if innermost {
			inner = append(inner, rg)
		}
	}
	st.Loops += len(inner)

	var traces []superTrace
	var patched []ins
	for _, rg := range inner {
		tr, ok := matchIdiom(fn, rg.start, rg.end)
		if !ok {
			st.Bailouts++
			continue
		}
		st.Idioms++
		if patched == nil {
			patched = append([]ins(nil), code...)
		}
		patched[rg.start] = ins{op: sOpTraceEnter, a: int32(len(traces))}
		traces = append(traces, tr)
	}
	if patched != nil {
		out.code = patched
		out.traces = traces
	}
	return out
}

// ---------------------------------------------------------------------------
// Affine analysis over the loop body.
//
// Within one trip of a counted loop every i32 value the body computes is
// tracked as an affine form  c + cL·L + Σ coeffₖ·r[invₖ]  (mod 2³²) in
// the induction local L and trip-invariant registers. The u32 ring makes
// this exact under wraparound: sums and products of affine forms (with a
// constant factor) are again affine with wrapped coefficients.

type affTerm struct {
	reg   int32
	coeff uint32
}

type affVal struct {
	cL    uint32
	terms []affTerm // sorted by reg, no zero coefficients
	c     uint32
}

func affConst(c uint32) *affVal { return &affVal{c: c} }
func affReg(reg, l int32) *affVal {
	if reg == l {
		return &affVal{cL: 1}
	}
	return &affVal{terms: []affTerm{{reg: reg, coeff: 1}}}
}

func affAdd(a, b *affVal) *affVal {
	if a == nil || b == nil {
		return nil
	}
	out := &affVal{cL: a.cL + b.cL, c: a.c + b.c}
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		switch {
		case j >= len(b.terms) || (i < len(a.terms) && a.terms[i].reg < b.terms[j].reg):
			out.terms = append(out.terms, a.terms[i])
			i++
		case i >= len(a.terms) || b.terms[j].reg < a.terms[i].reg:
			out.terms = append(out.terms, b.terms[j])
			j++
		default:
			if k := a.terms[i].coeff + b.terms[j].coeff; k != 0 {
				out.terms = append(out.terms, affTerm{reg: a.terms[i].reg, coeff: k})
			}
			i++
			j++
		}
	}
	return out
}

func affScale(a *affVal, k uint32) *affVal {
	if a == nil {
		return nil
	}
	if k == 0 {
		return affConst(0)
	}
	out := &affVal{cL: a.cL * k, c: a.c * k}
	for _, t := range a.terms {
		if kk := t.coeff * k; kk != 0 {
			out.terms = append(out.terms, affTerm{reg: t.reg, coeff: kk})
		}
	}
	return out
}

func affNeg(a *affVal) *affVal { return affScale(a, ^uint32(0)) } // ×(2³²−1) ≡ ×(−1)

func affEqual(a, b *affVal) bool {
	if a == nil || b == nil || a.cL != b.cL || a.c != b.c || len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			return false
		}
	}
	return true
}

// isPureConst reports an affine form with no register dependence.
func (a *affVal) isPureConst() bool { return a != nil && a.cL == 0 && len(a.terms) == 0 }

// ---------------------------------------------------------------------------
// f64 dataflow nodes for the loop body.

const (
	fnLoad = iota // v = loaded value #ld
	fnConst
	fnReg // trip-invariant f64 register
	fnOp
)

type fnode struct {
	kind    int
	ld      int
	imm     uint64
	reg     int32
	op      uint16
	immLeft bool // rOpF64MulImm: constant was the left operand
	x, y, z *fnode
}

// ---------------------------------------------------------------------------
// Idiom matching.

// accSpec describes one affine memory access of an idiom body:
// addr = u32(idx·m + A) + off with idx = c + cL·L + Σ coeffₖ·r[invₖ].
type accSpec struct {
	aff   affVal
	m, A  uint32
	off   uint64
	width uint64
}

func accEqual(a, b *accSpec) bool {
	return a.m == b.m && a.A == b.A && a.off == b.off && a.width == b.width &&
		affEqual(&a.aff, &b.aff)
}

// Combine shapes an idiom body can take (see exec_super.go for the
// execution semantics of each).
const (
	combFill     = iota // st(D) = const | invariant reg
	combCopy            // st(D) = v[x]
	combBin             // st(D) = op(fa, fb)
	combFMA             // st(D) = v[dst] ± float64(ex·ey), factors maybe imm-scaled
	combMinAdd          // st(D) = min(v[dst], v[a]+v[b])
	combScaleSum        // st(D) = c·(((v₀+v₁)+v₂)...) — left-assoc, order kept
	combAccum           // local acc = acc + v[x] (no store)
)

// superFactor is one operand of a combine: a loaded value, an invariant
// f64 register, or a constant, optionally scaled by an immediate multiply
// whose operand order is preserved (NaN payloads make it observable).
type superFactor struct {
	kind      int // fnLoad | fnReg | fnConst
	ld        int
	reg       int32
	bits      uint64
	scaled    bool
	scale     float64
	scaleLeft bool
}

// matchIdiom tries to compile the region [start..end] into an idiom
// template. The grammar is exactly the register-IR shape of a counted
// DSL loop: header exit test, straight-line body, induction increment,
// back-edge. Bodies may contain only affine i32 address arithmetic, f64
// loads/stores, and a recognised f64 combine; anything else leaves the
// loop to the register interpreter.
func matchIdiom(fn *compiledFunc, start, end int) (superTrace, bool) {
	code := fn.code
	nLoc := fn.numParams + fn.numLocals
	if end-start < 3 {
		return nil, false
	}

	// Tail: i32addimm L, L, step ; br start — or, when LVN reused a
	// body-computed L+step temp as the increment, copy L, src ; br start.
	// A copy tail is validated after the body scan: src's affine record
	// must be exactly L + step with a positive constant step.
	inc := &code[end-1]
	var l int32
	var step uint32
	tailCopy := int32(-1)
	switch {
	case inc.op == rOpI32AddImm && inc.a == inc.b && int32(uint32(inc.imm)) > 0:
		l = inc.a
		step = uint32(inc.imm)
	case inc.op == rOpCopy:
		l = inc.a
		tailCopy = inc.b
	default:
		return nil, false
	}
	if int(l) >= nLoc {
		return nil, false
	}

	// Header: if L >= limit → exit (the DSL's br_if out of the block).
	hd := &code[start]
	id := &superIdiom{start: start, end: end, l: l, step: step, limitReg: -1, tailCopy: -1}
	switch hd.op {
	case rOpBrCmpImm:
		if byte(hd.imm) != byte(OpI32GeS) || hd.b != l {
			return nil, false
		}
		id.limitImm = uint32(hd.imm >> 32)
	case rOpBrCmp:
		if byte(hd.imm) != byte(OpI32GeS) || hd.b != l || hd.c == l {
			return nil, false
		}
		id.limitReg = hd.c
	default:
		return nil, false
	}
	exit := int(hd.a)
	if exit >= start && exit <= end {
		return nil, false
	}
	id.exitPC = exit

	// Body scan: affine i32 forms, f64 loads, one trailing store, f64
	// combine tree. Every write target and every trip-invariant register
	// the final match depends on is validated afterwards.
	aff := map[int32]*affVal{}
	fmap := map[int32]*fnode{}
	written := map[int32]bool{}
	var invRegs []int32 // invariant regs the match reads (aff terms, fnReg, limit)
	// A written reg with no affine record is non-affine (nil); an
	// unwritten reg is a trip-invariant term, recorded for the final
	// never-written check that rejects loop-carried dependencies.
	affSrc := func(reg int32) *affVal {
		if reg == l {
			return affReg(reg, l)
		}
		if written[reg] {
			return aff[reg]
		}
		invRegs = append(invRegs, reg)
		return affReg(reg, l)
	}
	nodeOf := func(reg int32) *fnode {
		if n, ok := fmap[reg]; ok {
			return n
		}
		if written[reg] || reg == l {
			return nil // produced by a non-f64 op in the body
		}
		invRegs = append(invRegs, reg)
		return &fnode{kind: fnReg, reg: reg}
	}
	wroteL := false
	setW := func(reg int32, a *affVal, f *fnode) {
		if reg == l {
			wroteL = true // body mutates the induction local — not a counted loop
		}
		written[reg] = true
		if a != nil {
			aff[reg] = a
		} else {
			delete(aff, reg)
		}
		if f != nil {
			fmap[reg] = f
		} else {
			delete(fmap, reg)
		}
	}

	var storeVal *fnode
	var storePC int = -1
	for pc := start + 1; pc <= end-2; pc++ {
		i := &code[pc]
		if storePC >= 0 {
			return nil, false // store must be the last body instruction
		}
		switch i.op {
		case rOpConst:
			setW(i.a, affConst(uint32(i.imm)), &fnode{kind: fnConst, imm: i.imm})
		case rOpCopy:
			setW(i.a, affSrc(i.b), nodeOf(i.b))
		case rOpI32AddImm:
			setW(i.a, affAdd(affSrc(i.b), affConst(uint32(i.imm))), nil)
		case rOpI32MulImm:
			setW(i.a, affScale(affSrc(i.b), uint32(i.imm)), nil)
		case rOpI32MulAdd:
			setW(i.a, affAdd(affScale(affSrc(i.b), uint32(i.imm)), affSrc(i.c)), nil)
		case rOpI32MulAddII:
			setW(i.a, affAdd(affScale(affSrc(i.b), uint32(i.imm>>32)), affConst(uint32(i.imm))), nil)
		case uint16(OpI32Add):
			setW(i.a, affAdd(affSrc(i.b), affSrc(i.c)), nil)
		case uint16(OpI32Sub):
			setW(i.a, affAdd(affSrc(i.b), affNeg(affSrc(i.c))), nil)
		case uint16(OpI32Mul):
			b, c := affSrc(i.b), affSrc(i.c)
			switch {
			case b.isPureConst():
				setW(i.a, affScale(c, b.c), nil)
			case c.isPureConst():
				setW(i.a, affScale(b, c.c), nil)
			default:
				return nil, false
			}
		case rOpLoad64, rOpLoadAff64:
			var spec accSpec
			base := affSrc(i.b)
			if base == nil {
				return nil, false
			}
			spec.aff = *base
			if i.op == rOpLoadAff64 {
				spec.m, spec.A = uint32(i.imm>>32), uint32(i.imm)
				spec.off = uint64(uint32(i.c))
			} else {
				spec.m = 1
				spec.off = i.imm
			}
			spec.width = 8
			setW(i.a, nil, &fnode{kind: fnLoad, ld: len(id.loads)})
			id.loads = append(id.loads, spec)
		case rOpStore64, rOpStoreAff64:
			var spec accSpec
			var valReg int32
			if i.op == rOpStoreAff64 {
				base := affSrc(i.a)
				if base == nil {
					return nil, false
				}
				spec = accSpec{aff: *base, m: uint32(i.imm >> 32), A: uint32(i.imm),
					off: uint64(uint32(i.c)), width: 8}
				valReg = i.b
			} else {
				base := affSrc(i.a)
				if base == nil {
					return nil, false
				}
				spec = accSpec{aff: *base, m: 1, off: i.imm, width: 8}
				valReg = i.b
			}
			storeVal = nodeOf(valReg)
			if storeVal == nil {
				return nil, false
			}
			id.store = spec
			id.hasStore = true
			storePC = pc
		case uint16(OpF64Add), uint16(OpF64Sub), uint16(OpF64Mul), uint16(OpF64Div),
			uint16(OpF64Min), uint16(OpF64Max):
			x, y := nodeOf(i.b), nodeOf(i.c)
			if x == nil || y == nil {
				return nil, false
			}
			setW(i.a, nil, &fnode{kind: fnOp, op: i.op, x: x, y: y})
		case rOpF64MulImm:
			x := nodeOf(i.b)
			if x == nil {
				return nil, false
			}
			setW(i.a, nil, &fnode{kind: fnOp, op: i.op, imm: i.imm, immLeft: i.c != 0, x: x})
		case rOpF64MulAdd:
			x, y, z := nodeOf(i.b), nodeOf(i.c), nodeOf(int32(uint32(i.imm)))
			if x == nil || y == nil || z == nil {
				return nil, false
			}
			setW(i.a, nil, &fnode{kind: fnOp, op: i.op, x: x, y: y, z: z})
		default:
			return nil, false
		}
	}

	if wroteL {
		return nil, false
	}
	if tailCopy >= 0 {
		// copy-tail: the source must be a body-computed value that is
		// exactly L + step (pure, positive constant step, no other terms),
		// so the copy is equivalent to the canonical increment.
		a := aff[tailCopy]
		if a == nil || !written[tailCopy] || a.cL != 1 || len(a.terms) != 0 || int32(a.c) <= 0 {
			return nil, false
		}
		id.step = a.c
		id.tailCopy = tailCopy
	}

	// Classify the combine.
	if !id.classify(storeVal, fmap, written, nLoc, l, &invRegs) {
		return nil, false
	}

	// No trip-invariant input may be written anywhere in the body, and
	// no local other than L (and the accumulator) may be written —
	// slot-home temps are dead at loop exit (per-block LVN reset), locals
	// are not.
	if id.limitReg >= 0 {
		invRegs = append(invRegs, id.limitReg)
	}
	for _, spec := range id.loads {
		for _, t := range spec.aff.terms {
			invRegs = append(invRegs, t.reg)
		}
	}
	if id.hasStore {
		for _, t := range id.store.aff.terms {
			invRegs = append(invRegs, t.reg)
		}
	}
	for _, reg := range invRegs {
		if id.comb == combAccum && reg == id.accReg {
			continue // the accumulator is read-then-written by design
		}
		if written[reg] || reg == l {
			return nil, false
		}
	}
	for reg := range written {
		if int(reg) < nLoc && reg != l && !(id.comb == combAccum && reg == id.accReg) {
			return nil, false
		}
	}
	id.finish()
	return id.run, true
}

// factorOf resolves a combine leaf: load, invariant reg, constant, or an
// imm-scaled load/reg.
func factorOf(n *fnode) (superFactor, bool) {
	switch n.kind {
	case fnLoad:
		return superFactor{kind: fnLoad, ld: n.ld}, true
	case fnReg:
		return superFactor{kind: fnReg, reg: n.reg}, true
	case fnConst:
		return superFactor{kind: fnConst, bits: n.imm}, true
	case fnOp:
		if n.op == rOpF64MulImm {
			in, ok := factorOf(n.x)
			if ok && !in.scaled && in.kind != fnConst {
				in.scaled = true
				in.scale = f64(n.imm)
				in.scaleLeft = n.immLeft
				return in, true
			}
		}
	}
	return superFactor{}, false
}

// flattenSum collects a left-associated f64 add chain's load leaves in
// evaluation order.
func flattenSum(n *fnode, out []int) ([]int, bool) {
	if n.kind == fnLoad {
		return append(out, n.ld), true
	}
	if n.kind == fnOp && n.op == uint16(OpF64Add) {
		out, ok := flattenSum(n.x, out)
		if !ok {
			return nil, false
		}
		if n.y.kind != fnLoad {
			return nil, false
		}
		return append(out, n.y.ld), true
	}
	return nil, false
}

// classify decides which combine the store value tree (or accumulator
// write) is, filling the idiom's combine fields. usedLoads tracking
// rejects bodies with loads the combine does not consume — their touches
// would be lost in raw mode.
func (id *superIdiom) classify(val *fnode, fmap map[int32]*fnode, written map[int32]bool,
	nLoc int, l int32, invRegs *[]int32) bool {
	used := make([]bool, len(id.loads))
	useF := func(f superFactor) {
		if f.kind == fnLoad {
			used[f.ld] = true
		} else if f.kind == fnReg {
			*invRegs = append(*invRegs, f.reg)
		}
	}
	ok := func() bool {
		for i := range used {
			if !used[i] {
				return false
			}
		}
		return true
	}

	if !id.hasStore {
		// Accumulator reduce: the only local write is acc = acc + v[x]
		// (or v[x] + acc). Find it among f64 locals written in the body.
		for reg, n := range fmap {
			if int(reg) >= nLoc || reg == l || !written[reg] {
				continue
			}
			if n.kind != fnOp || n.op != uint16(OpF64Add) {
				return false
			}
			a, b := n.x, n.y
			switch {
			case a.kind == fnReg && a.reg == reg && b.kind == fnLoad:
				id.comb, id.accReg, id.accLd, id.accLeft = combAccum, reg, b.ld, true
			case b.kind == fnReg && b.reg == reg && a.kind == fnLoad:
				id.comb, id.accReg, id.accLd, id.accLeft = combAccum, reg, a.ld, false
			default:
				return false
			}
			used[id.accLd] = true
			return len(id.loads) == 1 && ok()
		}
		return false
	}

	switch val.kind {
	case fnConst:
		id.comb = combFill
		id.fillReg = -1
		id.fillBits = val.imm
		return ok()
	case fnReg:
		id.comb = combFill
		id.fillReg = val.reg
		*invRegs = append(*invRegs, val.reg)
		return ok()
	case fnLoad:
		id.comb = combCopy
		id.fa = superFactor{kind: fnLoad, ld: val.ld}
		used[val.ld] = true
		return ok()
	case fnOp:
	default:
		return false
	}

	// dstLoad: a load with the same access spec as the store.
	dstLd := -1
	for i := range id.loads {
		if accEqual(&id.loads[i], &id.store) {
			dstLd = i
			break
		}
	}

	switch val.op {
	case rOpF64MulAdd:
		// st = v[dst] + ex·ey, product rounding forced.
		if val.z.kind == fnLoad && val.z.ld == dstLd {
			fa, oka := factorOf(val.x)
			fb, okb := factorOf(val.y)
			if oka && okb {
				id.comb, id.dstLd, id.fa, id.fb = combFMA, dstLd, fa, fb
				used[dstLd] = true
				useF(fa)
				useF(fb)
				return ok()
			}
		}
		return false
	case uint16(OpF64Add), uint16(OpF64Sub):
		// Unfused st = v[dst] ± (ex·ey): the product was rounded when the
		// mul arm stored it, so the template's explicit rounding matches.
		if val.x.kind == fnLoad && val.x.ld == dstLd &&
			val.y.kind == fnOp && val.y.op == uint16(OpF64Mul) {
			fa, oka := factorOf(val.y.x)
			fb, okb := factorOf(val.y.y)
			if oka && okb {
				id.comb, id.dstLd, id.fa, id.fb = combFMA, dstLd, fa, fb
				id.neg = val.op == uint16(OpF64Sub)
				used[dstLd] = true
				useF(fa)
				useF(fb)
				return ok()
			}
		}
		if val.op == uint16(OpF64Add) {
			// Scale-free stencil sum (no outer const multiply).
			if lds, okc := flattenSum(val, nil); okc {
				id.comb, id.sumLds, id.scaleBits = combScaleSum, lds, pf64(1)
				id.scaleNone = true
				for _, ld := range lds {
					used[ld] = true
				}
				return ok()
			}
		}
		fallthrough
	case uint16(OpF64Mul), uint16(OpF64Div), uint16(OpF64Max):
		fa, oka := factorOf(val.x)
		fb, okb := factorOf(val.y)
		if oka && okb {
			id.comb, id.op, id.fa, id.fb = combBin, val.op, fa, fb
			useF(fa)
			useF(fb)
			return ok()
		}
		return false
	case uint16(OpF64Min):
		if val.x.kind == fnLoad && val.x.ld == dstLd &&
			val.y.kind == fnOp && val.y.op == uint16(OpF64Add) &&
			val.y.x.kind == fnLoad && val.y.y.kind == fnLoad {
			id.comb, id.dstLd = combMinAdd, dstLd
			id.fa = superFactor{kind: fnLoad, ld: val.y.x.ld}
			id.fb = superFactor{kind: fnLoad, ld: val.y.y.ld}
			used[dstLd], used[val.y.x.ld], used[val.y.y.ld] = true, true, true
			return ok()
		}
		fa, oka := factorOf(val.x)
		fb, okb := factorOf(val.y)
		if oka && okb {
			id.comb, id.op, id.fa, id.fb = combBin, val.op, fa, fb
			useF(fa)
			useF(fb)
			return ok()
		}
		return false
	case rOpF64MulImm:
		lds, okc := flattenSum(val.x, nil)
		if !okc {
			return false
		}
		id.comb, id.sumLds = combScaleSum, lds
		id.scaleBits, id.scaleLeft = val.imm, val.immLeft
		for _, ld := range lds {
			used[ld] = true
		}
		return ok()
	}
	return false
}
