package wasm

// regalloc.go — the second AoT stage (PR 4): translation of lowered stack
// code into a basic-block register IR, wasm3/WAMR-style.
//
// The register file reuses the frame layout: registers 0..nLoc-1 are the
// params+locals, and register nLoc+i is the canonical home of operand
// stack slot i — so the frame footprint (and therefore the stack-overflow
// trap point) is identical to the stack tiers. Within a basic block the
// translator tracks each abstract stack slot as a descriptor (a register
// or a literal) instead of materialising pushes and pops:
//
//   - local.get / *.const push descriptors and emit nothing;
//   - pure int ops with all-constant operands fold at translation time
//     (never floats: folding with Go's compile-time evaluation could pick
//     different roundings/NaN bit patterns than the runtime arms, so
//     float values always flow through the same exec code paths);
//   - local value numbering reuses an already-computed pure expression
//     held in a still-live register (the A[i][j] += v pattern computes
//     its address once);
//   - immediate forms (add/mul-imm, mul-add, affine loads, fused
//     compare-and-branch) collapse the address-arithmetic chains the
//     PolyBench codegen emits around every array element;
//   - a store to a local that is provably overwritten before any read,
//     branch or block end is removed (dead-store elimination).
//
// Every memory access stays checked: bounds and EPC-TLB probes are
// hoisted only by the superblock tier's idiom traces, once per loop trip.
//
// At every basic-block boundary all live slots are materialised into
// their canonical homes, so join points agree regardless of which
// predecessor ran. Translation is per-function and bails out (keeping
// the fused stack form) on any pattern it cannot prove; execution mixes
// forms freely because invokeFunc dispatches per function.

// RegStats aggregates translation-time counters for one module.
type RegStats struct {
	Funcs      int64 // functions translated to register form
	Bailouts   int64 // functions kept in the fused stack form
	Folds      int64 // constants folded at translation time
	Props      int64 // constant/copy propagations and CSE reuses
	DeadStores int64 // dead local stores removed
	Fused      int64 // immediate-fused / affine superinstructions emitted
}

// merge accumulates another translation's optimisation counters.
func (r *RegStats) merge(o RegStats) {
	r.Folds += o.Folds
	r.Props += o.Props
	r.DeadStores += o.DeadStores
	r.Fused += o.Fused
}

// rdesc describes where an abstract operand-stack slot's value lives.
type rdKind uint8

const (
	rdReg   rdKind = iota // in frame register .reg
	rdConst               // literal .val, not yet materialised
	// rdAff is a symbolic affine address u32(u32(r[reg])*m + A) with
	// val = m<<32|A. Loads and stores consume it as a single affine
	// access; any other consumer materialises it with one mul-add-imm.
	rdAff
)

type rdesc struct {
	kind rdKind
	reg  int32
	val  uint64
	vn   uint32
}

// usesReg reports whether the descriptor reads register r.
func (d rdesc) usesReg(r int32) bool {
	return (d.kind == rdReg || d.kind == rdAff) && d.reg == r
}

// exprKey identifies a pure computation for local value numbering.
type exprKey struct {
	op     uint16
	va, vb uint32
	imm    uint64
}

// avail (vn -> register) is kept separately from exprs (expression ->
// vn): an expression keeps its value number even after the register that
// held it is clobbered or a fusion rewrote the defining instruction, so
// a later recomputation re-establishes availability under the same vn
// and downstream expressions built on it still CSE.

type regTranslator struct {
	m     *Module
	src   *compiledFunc
	out   []ins
	dead  []bool // parallel to out: removed by DSE, dropped at block close
	stk   []rdesc
	nLoc  int32
	stats *RegStats

	// Per-block value-numbering state.
	nextVN  uint32
	vnOf    map[int32]uint32
	constVN map[uint64]uint32
	exprs   map[exprKey]uint32
	avail   map[uint32]int32

	// mulImmPrev remembers the value number the dst register of the most
	// recently emitted mul-imm held before that write, so removing the
	// mul-imm (affine-address formation) can restore it — the register
	// still holds the old value.
	mulImmPrev uint32

	// Per-block bookkeeping.
	blockStart   int
	intraTargets []int         // absolute out indexes of skip labels
	pendingLocal map[int32]int // local reg -> out index of unread store
	homing       map[int]bool  // slots mid-materialisation (cycle detection)

	// Function-level bookkeeping.
	labels map[int]int32 // old pc -> new pc of block start
	expect map[int]int   // old pc -> operand depth at entry
	bailed bool
}

// translateReg rewrites src into register form. ok is false when the
// function uses a pattern the translator does not prove; the caller then
// keeps the fused stack form for this function.
func translateReg(m *Module, src *compiledFunc, stats *RegStats) (compiledFunc, bool) {
	t := &regTranslator{
		m: m, src: src, stats: stats,
		nLoc:         int32(src.numParams + src.numLocals),
		vnOf:         make(map[int32]uint32),
		constVN:      make(map[uint64]uint32),
		exprs:        make(map[exprKey]uint32),
		avail:        make(map[uint32]int32),
		pendingLocal: make(map[int32]int),
		homing:       make(map[int]bool),
		labels:       make(map[int]int32),
		expect:       make(map[int]int),
	}

	leaders := map[int]bool{0: true}
	for _, i := range src.code {
		switch i.op {
		case opLoweredBr, opLoweredBrIf, opLoweredBrIfZ:
			leaders[int(i.a)] = true
		}
	}
	for _, tbl := range src.brTables {
		for _, tgt := range tbl {
			leaders[int(tgt.pc)] = true
		}
	}

	t.expect[0] = 0
	inBlock := false
	fell := false
	for pc := 0; pc < len(src.code) && !t.bailed; pc++ {
		if leaders[pc] {
			d, known := t.expect[pc]
			if inBlock {
				// Fallthrough into a join point: home everything first.
				if known && d != len(t.stk) {
					t.bail()
					break
				}
				d = len(t.stk)
				t.expect[pc] = d
				t.materializeAll()
				t.closeBlock()
			} else if !known {
				t.bail() // leader reachable only from unseen code
				break
			}
			t.openBlock(pc, d)
			inBlock = true
		} else if !inBlock {
			t.bail() // unreachable non-leader instruction
			break
		}
		fell = t.instr(&src.code[pc])
		if !fell && !t.bailed {
			t.closeBlock()
			inBlock = false
		}
	}
	if t.bailed || fell {
		// A function body always ends with an opLoweredReturn trailer.
		return compiledFunc{}, false
	}
	return t.finalize()
}

// finalize resolves branch targets from old-pc space to register-code
// indexes and remaps the br_table destinations.
func (t *regTranslator) finalize() (compiledFunc, bool) {
	for idx := range t.out {
		ii := &t.out[idx]
		switch ii.op {
		case rOpBr, rOpBrIf, rOpBrIfZ, rOpBrCmp, rOpBrCmpImm:
			if ii.a < 0 {
				np, ok := t.labels[int(-ii.a-1)]
				if !ok {
					return compiledFunc{}, false
				}
				ii.a = np
			}
		}
	}
	var tables [][]brTarget
	if len(t.src.brTables) > 0 {
		tables = make([][]brTarget, len(t.src.brTables))
		for ti, tbl := range t.src.brTables {
			nt := make([]brTarget, len(tbl))
			for i, tg := range tbl {
				np, ok := t.labels[int(tg.pc)]
				if !ok {
					return compiledFunc{}, false
				}
				nt[i] = brTarget{pc: np, drop: tg.drop, keep: tg.keep}
			}
			tables[ti] = nt
		}
	}
	out := *t.src
	out.code = t.out
	out.brTables = tables
	out.reg = true
	return out, true
}

func (t *regTranslator) bail() { t.bailed = true }

func (t *regTranslator) home(slot int) int32 { return t.nLoc + int32(slot) }

// homeOffTop returns the frame offset of the operand-stack top.
func (t *regTranslator) homeOffTop() int32 { return t.nLoc + int32(len(t.stk)) }

func (t *regTranslator) openBlock(pc, depth int) {
	t.labels[pc] = int32(len(t.out))
	t.blockStart = len(t.out)
	t.intraTargets = t.intraTargets[:0]
	for k := range t.vnOf {
		delete(t.vnOf, k)
	}
	for k := range t.constVN {
		delete(t.constVN, k)
	}
	for k := range t.exprs {
		delete(t.exprs, k)
	}
	for k := range t.avail {
		delete(t.avail, k)
	}
	for k := range t.pendingLocal {
		delete(t.pendingLocal, k)
	}
	t.stk = t.stk[:0]
	for i := 0; i < depth; i++ {
		h := t.home(i)
		t.stk = append(t.stk, rdesc{kind: rdReg, reg: h, vn: t.freshVN(h)})
	}
}

// closeBlock compacts the just-finished block, dropping the stores DSE
// marked dead, and remaps its intra-block branch targets to match.
func (t *regTranslator) closeBlock() {
	start := t.blockStart
	n := len(t.out) - start
	t.clearPendingLocals()
	mapIdx := make([]int32, n+1)
	w := start
	for idx := start; idx < start+n; idx++ {
		mapIdx[idx-start] = int32(w)
		if !t.dead[idx] {
			t.out[w] = t.out[idx]
			t.dead[w] = false
			w++
		}
	}
	mapIdx[n] = int32(w)
	t.out, t.dead = t.out[:w], t.dead[:w]
	for idx := start; idx < w; idx++ {
		c := &t.out[idx]
		switch c.op {
		case rOpBr, rOpBrIf, rOpBrIfZ, rOpBrCmp, rOpBrCmpImm:
			if c.a >= int32(start) {
				c.a = mapIdx[int(c.a)-start]
			}
		}
	}
}

// --- value numbering ---

func (t *regTranslator) freshVN(reg int32) uint32 {
	t.nextVN++
	t.vnOf[reg] = t.nextVN
	return t.nextVN
}

func (t *regTranslator) vnOfReg(reg int32) uint32 {
	if v, ok := t.vnOf[reg]; ok {
		return v
	}
	return t.freshVN(reg)
}

func (t *regTranslator) constNum(val uint64) uint32 {
	if v, ok := t.constVN[val]; ok {
		return v
	}
	t.nextVN++
	t.constVN[val] = t.nextVN
	return t.nextVN
}

func (t *regTranslator) vnOfDesc(d rdesc) uint32 {
	switch d.kind {
	case rdConst:
		return t.constNum(d.val)
	case rdAff:
		// The descriptor's own number identifies u32(r*m+A); the index
		// register's number would alias expressions over the bare index
		// (homeSlot likewise materialises under d.vn). Affine pushes
		// always carry the vn of their defining add, but guard anyway: a
		// fresh number is merely a missed CSE, never a false hit.
		if d.vn != 0 {
			return d.vn
		}
		t.nextVN++
		return t.nextVN
	}
	return t.vnOfReg(d.reg)
}

// --- emission helpers ---

func (t *regTranslator) emit(i ins) int {
	t.out = append(t.out, i)
	t.dead = append(t.dead, false)
	return len(t.out) - 1
}

// readReg marks a register as observed, pinning any pending local store.
func (t *regTranslator) readReg(r int32) {
	if r < t.nLoc {
		delete(t.pendingLocal, r)
	}
}

// prepWrite materialises every live descriptor that aliases reg so the
// upcoming write cannot invalidate it. exceptSlot is the slot the write
// defines (or -1).
func (t *regTranslator) prepWrite(reg int32, exceptSlot int) {
	for s := range t.stk {
		if s == exceptSlot {
			continue
		}
		if t.stk[s].usesReg(reg) {
			t.homeSlot(s)
		}
	}
}

// noteWrite records the new value number of reg after a write and, for
// locals, runs the dead-store bookkeeping. idx is the out index of the
// writing instruction (or -1 for writes that must not be DSE'd).
func (t *regTranslator) noteWrite(reg int32, idx int) uint32 {
	if reg < t.nLoc {
		if prev, ok := t.pendingLocal[reg]; ok {
			t.dead[prev] = true
			t.stats.DeadStores++
		}
		// Only side-effect-free stores are DSE candidates: a trapping or
		// memory-touching definition must execute even if overwritten.
		if idx >= 0 && regSideEffectFree(t.out[idx].op) {
			t.pendingLocal[reg] = idx
		} else {
			delete(t.pendingLocal, reg)
		}
	}
	return t.freshVN(reg)
}

// homeSlot forces slot s's value into its canonical home register.
func (t *regTranslator) homeSlot(s int) {
	if t.bailed {
		return
	}
	d := t.stk[s]
	h := t.home(s)
	if d.kind == rdReg && d.reg == h {
		return
	}
	// CSE reuse can leave slots living in each other's homes (compute
	// two expressions, drop both, recompute them in swapped slots): then
	// homing one slot needs its home's current tenant homed first, and
	// vice versa — an unbreakable cycle, since the frame has no scratch
	// register (the footprint must match the stack tiers). Detect the
	// re-entry and bail to the fused form instead of recursing forever.
	if t.homing[s] {
		t.bail()
		return
	}
	t.homing[s] = true
	defer delete(t.homing, s)
	t.prepWrite(h, s)
	if t.bailed {
		return
	}
	var vn uint32
	switch d.kind {
	case rdConst:
		t.emit(ins{op: rOpConst, a: h, imm: d.val})
		vn = t.constNum(d.val)
	case rdAff:
		t.readReg(d.reg)
		t.emit(ins{op: rOpI32MulAddII, a: h, b: d.reg, imm: d.val})
		vn = d.vn
	default:
		t.readReg(d.reg)
		t.emit(ins{op: rOpCopy, a: h, b: d.reg})
		vn = t.vnOfReg(d.reg)
	}
	t.noteWrite(h, -1)
	t.vnOf[h] = vn
	if vn != 0 {
		t.avail[vn] = h
	}
	t.stk[s] = rdesc{kind: rdReg, reg: h, vn: vn}
}

func (t *regTranslator) materializeAll() {
	for s := range t.stk {
		t.homeSlot(s)
	}
}

// ensureReg returns a register holding slot s's value, materialising a
// literal or affine address into the slot's own home when needed.
func (t *regTranslator) ensureReg(s int) int32 {
	if t.stk[s].kind != rdReg {
		t.homeSlot(s)
	}
	return t.stk[s].reg
}

func (t *regTranslator) push(d rdesc) {
	t.stk = append(t.stk, d)
}

func (t *regTranslator) pop() rdesc {
	d := t.stk[len(t.stk)-1]
	t.stk = t.stk[:len(t.stk)-1]
	return d
}

// canTouchLast reports whether the last n emitted instructions can be
// rewritten or truncated: they must belong to the current block, be
// live, and not be the landing site of an intra-block skip label.
func (t *regTranslator) canTouchLast(n int) bool {
	if len(t.out)-n < t.blockStart {
		return false
	}
	for i := len(t.out) - n; i < len(t.out); i++ {
		if t.dead[i] {
			return false
		}
	}
	for _, tg := range t.intraTargets {
		if tg > len(t.out)-n {
			return false
		}
	}
	return true
}

// lastIs returns the last emitted instruction if it is live, rewritable
// and has dst == reg.
func (t *regTranslator) lastIs(op uint16, reg int32) (*ins, bool) {
	if !t.canTouchLast(1) {
		return nil, false
	}
	li := &t.out[len(t.out)-1]
	if li.op == op && li.a == reg {
		return li, true
	}
	return nil, false
}

// refs counts live descriptors referencing reg.
func (t *regTranslator) refs(reg int32) int {
	return t.refsBelow(reg, len(t.stk))
}

// refsBelow counts descriptors in stk[:limit] referencing reg — the
// slots that stay live once an instruction's operands (slots >= limit)
// are consumed.
func (t *regTranslator) refsBelow(reg int32, limit int) int {
	n := 0
	for s := 0; s < limit && s < len(t.stk); s++ {
		if t.stk[s].usesReg(reg) {
			n++
		}
	}
	return n
}

// prepWriteBelow materialises the descriptors below limit that alias
// reg, ahead of a write to it. The instruction's own operands (slots
// >= limit) MUST still be on the abstract stack when this runs: any
// materialisation that would clobber a register an operand aliases then
// re-homes that operand first (prepWrite scans the whole stack), which
// is the invariant that makes popped-value clobbering impossible.
func (t *regTranslator) prepWriteBelow(reg int32, limit int) {
	for s := 0; s < limit && s < len(t.stk); s++ {
		if t.stk[s].usesReg(reg) {
			t.homeSlot(s)
		}
	}
}

// --- instruction translation ---

// instr translates one lowered instruction, returning false when it ends
// the block with no fallthrough.
func (t *regTranslator) instr(i *ins) bool {
	op := i.op
	switch op {
	case uint16(OpUnreachable):
		t.emit(ins{op: rOpUnreach})
		return false

	case opLoweredBr:
		t.branchTo(int(i.a), int(i.b), int(i.c))
		t.emit(ins{op: rOpBr, a: -int32(i.a) - 1})
		t.clearPendingLocals()
		return false

	case opLoweredBrIf, opLoweredBrIfZ:
		t.condBranch(op, int(i.a), int(i.b), int(i.c))
		return !t.bailed

	case opLoweredBrTable:
		// Home everything (index included) BEFORE popping: popped
		// descriptors are invisible to prepWrite and could be clobbered
		// by the materialisation of the slots beneath.
		t.materializeAll()
		idxReg := t.pop().reg
		t.readReg(idxReg)
		d := len(t.stk)
		for _, tgt := range t.src.brTables[i.a] {
			t.recordExpect(int(tgt.pc), d-int(tgt.drop))
		}
		t.emit(ins{op: rOpBrTable, a: i.a, b: idxReg, c: t.homeOffTop()})
		t.clearPendingLocals()
		return false

	case opLoweredReturn:
		keep := int(i.c)
		var from int32
		if keep == 1 {
			from = t.ensureReg(len(t.stk) - 1)
			t.readReg(from)
		} else {
			for s := len(t.stk) - keep; s < len(t.stk); s++ {
				t.homeSlot(s)
			}
			from = t.home(len(t.stk) - keep)
		}
		t.emit(ins{op: rOpReturn, a: from, c: int32(keep)})
		t.stk = t.stk[:len(t.stk)-keep]
		t.clearPendingLocals()
		return false

	case uint16(OpCall):
		ft, err := t.m.TypeOfFunc(uint32(i.a))
		if err != nil {
			t.bail()
			return false
		}
		t.callCommon(len(ft.Params))
		t.emit(ins{op: rOpCall, a: i.a, b: t.homeOffTop() + int32(len(ft.Params))})
		t.pushResults(len(ft.Results))

	case uint16(OpCallIndirect):
		ft := t.m.Types[i.a]
		// Home everything (element index included) before popping, so
		// nothing emitted below can clobber the popped element register.
		t.materializeAll()
		elemReg := t.pop().reg
		t.readReg(elemReg)
		t.callCommon(len(ft.Params))
		t.emit(ins{op: rOpCallIndirect, a: i.a,
			b: t.homeOffTop() + int32(len(ft.Params)), c: elemReg})
		t.pushResults(len(ft.Results))

	case uint16(OpDrop):
		t.pop()

	case uint16(OpSelect):
		n := len(t.stk)
		if t.stk[n-1].kind == rdConst {
			// Pure selection: no arithmetic, no rounding — fold freely.
			cond := t.pop()
			v2 := t.pop()
			v1 := t.pop()
			if uint32(cond.val) != 0 {
				t.push(v1)
			} else {
				t.push(v2)
			}
			t.stats.Folds++
			return true
		}
		// Materialise all three operands in place, then protect the dst
		// write — operands stay on the stack throughout.
		t.ensureReg(n - 3)
		t.ensureReg(n - 2)
		t.ensureReg(n - 1)
		dst := t.home(n - 3)
		t.prepWriteBelow(dst, n-3)
		r1, r2, rc := t.stk[n-3].reg, t.stk[n-2].reg, t.stk[n-1].reg
		t.stk = t.stk[:n-3]
		t.readReg(r1)
		t.readReg(r2)
		t.readReg(rc)
		t.emit(ins{op: rOpSelect, a: dst, b: r1, c: r2, imm: uint64(uint32(rc))})
		vn := t.noteWrite(dst, -1)
		t.push(rdesc{kind: rdReg, reg: dst, vn: vn})

	case uint16(OpLocalGet):
		r := int32(i.a)
		delete(t.pendingLocal, r) // the value is observed
		t.push(rdesc{kind: rdReg, reg: r, vn: t.vnOfReg(r)})

	case uint16(OpLocalSet):
		t.localSet(int32(i.a), false)

	case uint16(OpLocalTee):
		t.localSet(int32(i.a), true)

	case uint16(OpGlobalGet):
		dst := t.home(len(t.stk))
		t.prepWrite(dst, -1)
		t.emit(ins{op: rOpGlobalGet, a: dst, b: i.a})
		vn := t.noteWrite(dst, -1)
		t.push(rdesc{kind: rdReg, reg: dst, vn: vn})

	case uint16(OpGlobalSet):
		src := t.ensureReg(len(t.stk) - 1)
		t.pop()
		t.readReg(src)
		t.emit(ins{op: rOpGlobalSet, a: i.a, b: src})

	case uint16(OpMemorySize):
		dst := t.home(len(t.stk))
		t.prepWrite(dst, -1)
		t.emit(ins{op: rOpMemSize, a: dst})
		vn := t.noteWrite(dst, -1)
		t.push(rdesc{kind: rdReg, reg: dst, vn: vn})

	case uint16(OpMemoryGrow):
		n := len(t.stk)
		t.ensureReg(n - 1)
		dst := t.home(n - 1)
		t.prepWriteBelow(dst, n-1)
		src := t.stk[n-1].reg
		t.stk = t.stk[:n-1]
		t.readReg(src)
		t.emit(ins{op: rOpMemGrow, a: dst, b: src})
		vn := t.noteWrite(dst, -1)
		t.push(rdesc{kind: rdReg, reg: dst, vn: vn})

	case uint16(OpI32Const), uint16(OpI64Const), uint16(OpF32Const), uint16(OpF64Const):
		t.push(rdesc{kind: rdConst, val: i.imm})

	default:
		if lop, ok := regLoadOp(op); ok {
			t.load(lop, i.imm)
		} else if sop, ok := regStoreOp(op); ok {
			t.store(sop, i.imm)
		} else if regBinaryOp(op) {
			t.binary(op)
		} else if regUnaryOp(op) {
			t.unary(op)
		} else {
			t.bail()
			return false
		}
	}
	return true
}

func (t *regTranslator) clearPendingLocals() {
	for k := range t.pendingLocal {
		delete(t.pendingLocal, k)
	}
}

func (t *regTranslator) recordExpect(target, depth int) {
	if d, ok := t.expect[target]; ok {
		if d != depth {
			t.bail()
		}
		return
	}
	t.expect[target] = depth
}

// branchTo homes the live slots and emits the value-transfer copies for a
// taken branch (drop slots discarded beneath the kept keep slots).
func (t *regTranslator) branchTo(target, drop, keep int) {
	t.materializeAll()
	d := len(t.stk)
	if drop > 0 {
		for j := d - keep; j < d; j++ {
			t.emit(ins{op: rOpCopy, a: t.home(j - drop), b: t.home(j)})
		}
	}
	t.recordExpect(target, d-drop)
}

// condBranch translates br_if / br_if_z, fusing a preceding i32 compare
// into a single compare-and-branch where possible.
func (t *regTranslator) condBranch(op uint16, target, drop, keep int) {
	// Home everything — the condition included — BEFORE popping it:
	// popped descriptors are invisible to prepWrite, so materialising
	// the slots beneath could otherwise clobber a CSE-aliased register
	// the condition lives in. (Branch conditions are never folded even
	// when literal: the fallthrough code was emitted live by the
	// validator and must stay addressable.)
	t.materializeAll()
	condReg := t.pop().reg
	d := len(t.stk)
	t.recordExpect(target, d-drop)

	if drop > 0 {
		// Taken path must shift kept values: invert, copy, jump.
		t.readReg(condReg)
		skipOp := rOpBrIfZ
		if op == opLoweredBrIfZ {
			skipOp = rOpBrIf
		}
		skip := t.emit(ins{op: skipOp, b: condReg})
		for j := d - keep; j < d; j++ {
			t.emit(ins{op: rOpCopy, a: t.home(j - drop), b: t.home(j)})
		}
		t.emit(ins{op: rOpBr, a: -int32(target) - 1})
		t.out[skip].a = int32(len(t.out))
		t.intraTargets = append(t.intraTargets, len(t.out))
		t.clearPendingLocals()
		// Fallthrough: everything homed.
		return
	}

	t.readReg(condReg)
	// Fuse "cmp; br_if" when the condition is the just-computed compare
	// living in the popped slot's own home with no other readers.
	if t.canTouchLast(1) && condReg == t.home(d) && t.refs(condReg) == 0 {
		li := &t.out[len(t.out)-1]
		if li.a == condReg && isI32CmpOp(li.op) {
			cmpOp := byte(li.op)
			if op == opLoweredBrIfZ {
				cmpOp = negCmpOp(cmpOp)
			}
			// "x cmp const; br" with the constant materialised just
			// before the compare collapses to compare-imm-and-branch.
			if t.canTouchLast(2) && len(t.out) >= 2 {
				ci := &t.out[len(t.out)-2]
				if ci.op == rOpConst && ci.a == li.c && li.b != ci.a &&
					t.refs(li.c) == 0 && ci.a >= t.nLoc {
					b := li.b
					constVal := uint64(uint32(ci.imm)) << 32
					delete(t.vnOf, li.a)
					delete(t.vnOf, ci.a)
					t.out = t.out[:len(t.out)-2]
					t.dead = t.dead[:len(t.dead)-2]
					t.emit(ins{op: rOpBrCmpImm, a: -int32(target) - 1, b: b,
						imm: constVal | uint64(cmpOp)})
					t.stats.Fused++
					t.clearPendingLocals()
					return
				}
			}
			b, c := li.b, li.c
			delete(t.vnOf, li.a)
			t.out = t.out[:len(t.out)-1]
			t.dead = t.dead[:len(t.dead)-1]
			t.emit(ins{op: rOpBrCmp, a: -int32(target) - 1, b: b, c: c, imm: uint64(cmpOp)})
			t.stats.Fused++
			t.clearPendingLocals()
			return
		}
	}
	bop := rOpBrIf
	if op == opLoweredBrIfZ {
		bop = rOpBrIfZ
	}
	t.emit(ins{op: bop, a: -int32(target) - 1, b: condReg})
	t.clearPendingLocals()
}

// callCommon homes the nargs argument slots and any surviving descriptor
// that aliases a register the callee frame will clobber.
func (t *regTranslator) callCommon(nargs int) {
	d := len(t.stk)
	if d < nargs {
		t.bail()
		return
	}
	base := t.home(d - nargs)
	for s := 0; s < d-nargs; s++ {
		if t.stk[s].kind != rdConst && t.stk[s].reg >= base {
			t.homeSlot(s)
		}
	}
	for s := d - nargs; s < d; s++ {
		t.homeSlot(s)
	}
	t.stk = t.stk[:d-nargs]
	// The callee owns every register at and above its frame base.
	for r := range t.vnOf {
		if r >= base {
			delete(t.vnOf, r)
		}
	}
}

func (t *regTranslator) pushResults(nres int) {
	for i := 0; i < nres; i++ {
		h := t.home(len(t.stk))
		vn := t.freshVN(h)
		t.push(rdesc{kind: rdReg, reg: h, vn: vn})
	}
}

// localSet writes the popped value into local x (keeping it on the stack
// for tee), retargeting the defining instruction when the value was just
// computed into the popped slot's own home.
func (t *regTranslator) localSet(x int32, tee bool) {
	// The value stays on the stack while descriptors aliasing x are
	// materialised, so that materialisation can never clobber a
	// register the value lives in (prepWrite re-homes it first).
	t.prepWrite(x, len(t.stk)-1)
	v := t.pop()
	// Invalidate CSE entries that read the local's old value via vnOf.
	switch {
	case v.kind == rdReg && v.reg == x:
		// local.get x; local.set x — a no-op: nothing is emitted, so the
		// dead-store bookkeeping must not run. A pending store to x is
		// still the local's definition (with tee, the only one) and stays
		// a DSE candidate only for a genuine later overwrite.
		t.stats.Props++
		t.vnOf[x] = v.vn
	case v.kind == rdReg && v.reg == t.home(len(t.stk)) && t.refs(v.reg) == 0 && t.canTouchLast(1) &&
		t.out[len(t.out)-1].a == v.reg && regRetargetable(t.out[len(t.out)-1].op):
		// Retarget the defining instruction straight into the local:
		// "local.get x; i32.const 1; i32.add; local.set x" becomes one
		// add-immediate with dst = x.
		idx := len(t.out) - 1
		delete(t.vnOf, v.reg)
		t.out[idx].a = x
		vn := t.noteWrite(x, idx)
		t.vnOf[x] = vn
		t.stats.Props++
		v = rdesc{kind: rdReg, reg: x, vn: vn}
	case v.kind == rdConst:
		idx := t.emit(ins{op: rOpConst, a: x, imm: v.val})
		t.noteWrite(x, idx)
		t.vnOf[x] = t.constNum(v.val)
		v = rdesc{kind: rdReg, reg: x, vn: t.vnOf[x]}
	case v.kind == rdAff:
		t.readReg(v.reg)
		idx := t.emit(ins{op: rOpI32MulAddII, a: x, b: v.reg, imm: v.val})
		t.noteWrite(x, idx)
		t.vnOf[x] = v.vn
		v = rdesc{kind: rdReg, reg: x, vn: v.vn}
	default:
		t.readReg(v.reg)
		idx := t.emit(ins{op: rOpCopy, a: x, b: v.reg})
		t.noteWrite(x, idx)
		t.vnOf[x] = v.vn
		v = rdesc{kind: rdReg, reg: x, vn: v.vn}
	}
	if tee {
		t.push(v)
	}
}

// --- memory ---

// regLoadOp maps a wasm load opcode to its checked register opcode.
func regLoadOp(op uint16) (uint16, bool) {
	switch op {
	case uint16(OpI32Load), uint16(OpF32Load), uint16(OpI64Load32U):
		return rOpLoad32U, true
	case uint16(OpI64Load), uint16(OpF64Load):
		return rOpLoad64, true
	case uint16(OpI32Load8U), uint16(OpI64Load8U):
		return rOpLoad8U, true
	case uint16(OpI32Load16U), uint16(OpI64Load16U):
		return rOpLoad16U, true
	case uint16(OpI32Load8S):
		return rOpLoad8S32, true
	case uint16(OpI32Load16S):
		return rOpLoad16S32, true
	case uint16(OpI64Load8S):
		return rOpLoad8S64, true
	case uint16(OpI64Load16S):
		return rOpLoad16S64, true
	case uint16(OpI64Load32S):
		return rOpLoad32S64, true
	}
	return 0, false
}

func regStoreOp(op uint16) (uint16, bool) {
	switch op {
	case uint16(OpI32Store8), uint16(OpI64Store8):
		return rOpStore8, true
	case uint16(OpI32Store16), uint16(OpI64Store16):
		return rOpStore16, true
	case uint16(OpI32Store), uint16(OpF32Store), uint16(OpI64Store32):
		return rOpStore32, true
	case uint16(OpI64Store), uint16(OpF64Store):
		return rOpStore64, true
	}
	return 0, false
}

func (t *regTranslator) load(lop uint16, offset uint64) {
	n := len(t.stk)
	dst := t.home(n - 1)
	// Affine fusion: a symbolic address folds the whole "scale, add
	// array base, load" tail into one dispatch. The address descriptor
	// stays on the stack while the dst write is protected.
	if t.stk[n-1].kind == rdAff && (lop == rOpLoad64 || lop == rOpLoad32U) && offset <= 0x7FFFFFFF {
		t.prepWriteBelow(dst, n-1)
		if based := t.stk[n-1]; based.kind == rdAff {
			t.stk = t.stk[:n-1]
			t.readReg(based.reg)
			aff := rOpLoadAff64
			if lop == rOpLoad32U {
				aff = rOpLoadAff32
			}
			t.emit(ins{op: aff, a: dst, b: based.reg, c: int32(offset), imm: based.val})
			t.stats.Fused++
			vn := t.noteWrite(dst, -1)
			t.push(rdesc{kind: rdReg, reg: dst, vn: vn})
			return
		}
	}
	t.ensureReg(n - 1)
	t.prepWriteBelow(dst, n-1)
	baseReg := t.stk[n-1].reg
	t.stk = t.stk[:n-1]
	t.readReg(baseReg)
	t.emit(ins{op: lop, a: dst, b: baseReg, imm: offset})
	vn := t.noteWrite(dst, -1)
	t.push(rdesc{kind: rdReg, reg: dst, vn: vn})
}

func (t *regTranslator) store(sop uint16, offset uint64) {
	n := len(t.stk)
	// Operands stay on the stack through every materialisation so no
	// write can clobber a register they alias.
	if t.stk[n-2].kind == rdAff && sop == rOpStore64 && offset <= 0x7FFFFFFF {
		t.ensureReg(n - 1)
		if based := t.stk[n-2]; based.kind == rdAff {
			valReg := t.stk[n-1].reg
			t.stk = t.stk[:n-2]
			t.readReg(based.reg)
			t.readReg(valReg)
			t.emit(ins{op: rOpStoreAff64, a: based.reg, b: valReg, c: int32(offset), imm: based.val})
			t.stats.Fused++
			return
		}
	}
	t.ensureReg(n - 2)
	if vald := t.stk[n-1]; sop == rOpStore64 && vald.kind == rdConst && offset <= 0x7FFFFFFF {
		// Constant store (array-init loops): carry the literal in imm.
		baseReg := t.stk[n-2].reg
		t.stk = t.stk[:n-2]
		t.readReg(baseReg)
		t.emit(ins{op: rOpStore64Imm, a: baseReg, c: int32(offset), imm: vald.val})
		t.stats.Fused++
		return
	}
	t.ensureReg(n - 1)
	baseReg, valReg := t.stk[n-2].reg, t.stk[n-1].reg
	t.stk = t.stk[:n-2]
	t.readReg(baseReg)
	t.readReg(valReg)
	t.emit(ins{op: sop, a: baseReg, b: valReg, imm: offset})
}

// --- pure value operations ---

func (t *regTranslator) binary(op uint16) {
	n := len(t.stk)
	rd, ld := t.stk[n-1], t.stk[n-2]
	// Constant folding: integer-only, never on trapping ops.
	if ld.kind == rdConst && rd.kind == rdConst {
		if v, ok := foldBinary(op, ld.val, rd.val); ok {
			t.stk = t.stk[:n-2]
			t.push(rdesc{kind: rdConst, val: v})
			t.stats.Folds++
			return
		}
	}
	dstSlot := n - 2
	dst := t.home(dstSlot)
	va, vb := t.vnOfDesc(ld), t.vnOfDesc(rd)
	key := exprKey{op: op, va: va, vb: vb}
	if regCommutative(op) && vb < va {
		key.va, key.vb = vb, va
	}
	pure := regPure(op)
	var vnVal uint32
	if pure {
		var known bool
		if vnVal, known = t.exprs[key]; !known {
			t.nextVN++
			vnVal = t.nextVN
			t.exprs[key] = vnVal
		}
		if reg, ok := t.avail[vnVal]; ok && t.vnOf[reg] == vnVal {
			// CSE: the value is still live in reg.
			t.readReg(reg)
			t.stk = t.stk[:dstSlot]
			t.push(rdesc{kind: rdReg, reg: reg, vn: vnVal})
			t.stats.Props++
			t.cleanDeadTail()
			return
		}
	}

	// Every emitting path below keeps the operands on the abstract
	// stack until just before its emit, so any protective
	// materialisation re-homes them instead of clobbering their
	// registers; in-place rewrites emit nothing and pop afterwards.
	fusedDone := false
	switch op {
	case uint16(OpI32Add):
		// Prefer mul-add fusion over add-imm: it feeds the affine
		// accesses.
		if mi, other, ok := t.fuseLastMul(rOpI32MulImm, ld, rd, dst, dstSlot, false); ok {
			*mi = ins{op: rOpI32MulAdd, a: dst, b: mi.b, c: other.reg, imm: mi.imm}
			t.stk = t.stk[:dstSlot]
			fusedDone = true
			break
		}
		if c, r, ok := splitConst(ld, rd); ok {
			if li, ok2 := t.lastIs(rOpI32MulImm, r.reg); ok2 && r.reg >= t.nLoc &&
				t.refsBelow(r.reg, dstSlot) == 0 {
				// (x*m)+A — the address-finalise pair. Keep the address
				// symbolic: loads and stores consume it as one affine
				// access, any other reader materialises one mul-add-imm.
				idxReg, m := li.b, li.imm
				if t.mulImmPrev != 0 {
					t.vnOf[r.reg] = t.mulImmPrev
				} else {
					delete(t.vnOf, r.reg)
				}
				t.out = t.out[:len(t.out)-1]
				t.dead = t.dead[:len(t.dead)-1]
				t.stats.Fused++
				t.stk = t.stk[:dstSlot]
				t.push(rdesc{kind: rdAff, reg: idxReg,
					val: m<<32 | uint64(uint32(c.val)), vn: vnVal})
				return
			}
			fusedDone = t.emitImm(rOpI32AddImm, dst, dstSlot, uint64(uint32(c.val)))
		}
		if !fusedDone && t.fuseSwapMul(ld, rd, dst, dstSlot) {
			t.stk = t.stk[:dstSlot]
			fusedDone = true
		}
	case uint16(OpI32Sub):
		// x - c == x + (-c) with u32 wraparound: bit-identical.
		if rd.kind == rdConst && ld.kind == rdReg {
			fusedDone = t.emitImm(rOpI32AddImm, dst, dstSlot, uint64(-uint32(rd.val)))
		}
	case uint16(OpI32Mul):
		if c, _, ok := splitConst(ld, rd); ok {
			fusedDone = t.emitImm(rOpI32MulImm, dst, dstSlot, uint64(uint32(c.val)))
		}
	case uint16(OpI64Add):
		if c, _, ok := splitConst(ld, rd); ok {
			fusedDone = t.emitImm(rOpI64AddImm, dst, dstSlot, c.val)
		}
	case uint16(OpI64Sub):
		if rd.kind == rdConst && ld.kind == rdReg {
			fusedDone = t.emitImm(rOpI64AddImm, dst, dstSlot, -rd.val)
		}
	case uint16(OpF64Mul):
		// A constant on either side becomes an immediate operand,
		// evaluated at run time — never folded — with the operand ORDER
		// preserved via the c flag (NaN payload propagation makes float
		// operand order observable).
		if c, _, ok := splitConst(ld, rd); ok {
			cflag := int32(0)
			if ld.kind == rdConst {
				cflag = 1 // constant was the left operand
			}
			fusedDone = t.emitImmC(rOpF64MulImm, dst, dstSlot, c.val, cflag)
		}
	case uint16(OpF64Add):
		// f64.mul feeding f64.add fuses with both roundings kept. Only
		// the order-preserving shape (mul result on the right) fuses:
		// rOpF64MulAdd computes addend+product, and float operand order
		// is observable through NaN payload propagation.
		if mi, other, ok := t.fuseLastMul(uint16(OpF64Mul), ld, rd, dst, dstSlot, true); ok {
			*mi = ins{op: rOpF64MulAdd, a: dst, b: mi.b, c: mi.c,
				imm: uint64(uint32(other.reg))}
			t.stk = t.stk[:dstSlot]
			fusedDone = true
		}
	}
	if fusedDone {
		t.stats.Fused++
	} else {
		t.ensureReg(dstSlot)
		t.ensureReg(dstSlot + 1)
		t.prepWriteBelow(dst, dstSlot)
		lr, rr := t.stk[dstSlot].reg, t.stk[dstSlot+1].reg
		t.stk = t.stk[:dstSlot]
		t.readReg(lr)
		t.readReg(rr)
		t.emit(ins{op: op, a: dst, b: lr, c: rr})
	}
	vn := t.noteWrite(dst, -1)
	if pure {
		vn = vnVal
		t.vnOf[dst] = vn
		t.avail[vn] = dst
	}
	t.push(rdesc{kind: rdReg, reg: dst, vn: vn})
}

// emitImm emits an immediate-form binary op. The single register
// operand (exactly one of the two operand slots, by the callers'
// guards) is re-resolved after protecting the dst write, because the
// protection may have re-homed it; the operands are popped only at the
// emit itself.
func (t *regTranslator) emitImm(iop uint16, dst int32, dstSlot int, imm uint64) bool {
	return t.emitImmC(iop, dst, dstSlot, imm, 0)
}

func (t *regTranslator) emitImmC(iop uint16, dst int32, dstSlot int, imm uint64, cflag int32) bool {
	t.prepWriteBelow(dst, dstSlot)
	r := int32(-1)
	for s := dstSlot; s < dstSlot+2; s++ {
		if t.stk[s].kind == rdReg {
			r = t.stk[s].reg
			break
		}
	}
	if r < 0 {
		return false
	}
	if iop == rOpI32MulImm {
		// Remember dst's previous value number: removing this mul-imm
		// later (affine-address formation, swap fusion) reverts dst to
		// the value it still physically holds.
		t.mulImmPrev = t.vnOf[dst]
	}
	t.stk = t.stk[:dstSlot]
	t.readReg(r)
	t.emit(ins{op: iop, a: dst, b: r, c: cflag, imm: imm})
	return true
}

// cleanDeadTail removes trailing side-effect-free instructions whose
// home destination no live descriptor reads — the recomputation a CSE
// hit just made redundant.
func (t *regTranslator) cleanDeadTail() {
	for t.canTouchLast(1) {
		li := &t.out[len(t.out)-1]
		if li.a < t.nLoc || !regSideEffectFree(li.op) || t.refs(li.a) != 0 {
			return
		}
		delete(t.vnOf, li.a)
		t.out = t.out[:len(t.out)-1]
		t.dead = t.dead[:len(t.dead)-1]
	}
}

// fuseLastMul checks that the immediately preceding instruction is mulOp
// writing a dead home register that is exactly one of the two operands
// (the other being a plain register), with the result home unreferenced.
// The caller rewrites it in place into a fused mul-add with dst = the
// result home; execution order is preserved because the rewritten
// instruction stays last and reads only values that existed before it.
func (t *regTranslator) fuseLastMul(mulOp uint16, ld, rd rdesc, dst int32, dstSlot int, requireMulRHS bool) (*ins, rdesc, bool) {
	if !t.canTouchLast(1) || t.refsBelow(dst, dstSlot) != 0 {
		return nil, rdesc{}, false
	}
	li := &t.out[len(t.out)-1]
	if li.op != mulOp || li.a < t.nLoc {
		return nil, rdesc{}, false
	}
	var other rdesc
	switch {
	case ld.kind == rdReg && ld.reg == li.a && !(rd.kind == rdReg && rd.reg == li.a):
		// Mul result is the LEFT operand: fusing would swap operand
		// order — forbidden where order is observable (floats).
		if requireMulRHS {
			return nil, rdesc{}, false
		}
		other = rd
	case rd.kind == rdReg && rd.reg == li.a && !(ld.kind == rdReg && ld.reg == li.a):
		other = ld
	default:
		return nil, rdesc{}, false
	}
	if other.kind != rdReg || t.refsBelow(li.a, dstSlot) != 0 {
		return nil, rdesc{}, false
	}
	t.readReg(other.reg)
	delete(t.vnOf, li.a)
	return li, other, true
}

// fuseSwapMul handles the stencil shape "i*N + (j±c)": the mul-imm sits
// two instructions back with the other operand's cheap definition
// between. When the two are independent, they swap — the definition
// first, then the mul rewritten into a mul-add with dst = the result
// home — preserving every read's value.
func (t *regTranslator) fuseSwapMul(ld, rd rdesc, dst int32, dstSlot int) bool {
	if ld.kind != rdReg || rd.kind != rdReg || !t.canTouchLast(2) || t.refsBelow(dst, dstSlot) != 0 {
		return false
	}
	n := len(t.out)
	if n-2 < t.blockStart {
		return false
	}
	M := t.out[n-2]
	I1 := t.out[n-1]
	if M.op != rOpI32MulImm || M.a < t.nLoc || M.a == I1.a || M.b == I1.a {
		return false
	}
	// I1 must be cheap, side-effect-free, and must not read the mul's
	// dst (it will now execute before the mul).
	switch I1.op {
	case rOpConst:
	case rOpCopy, rOpI32AddImm:
		if I1.b == M.a {
			return false
		}
	default:
		return false
	}
	if !(ld.reg == M.a && rd.reg == I1.a) && !(rd.reg == M.a && ld.reg == I1.a) {
		return false
	}
	if t.refsBelow(M.a, dstSlot) != 0 {
		return false
	}
	t.readReg(I1.a)
	// M.a is no longer written: it reverts to its pre-mul content.
	if t.mulImmPrev != 0 {
		t.vnOf[M.a] = t.mulImmPrev
	} else {
		delete(t.vnOf, M.a)
	}
	t.out[n-2] = I1
	t.out[n-1] = ins{op: rOpI32MulAdd, a: dst, b: M.b, c: I1.a, imm: M.imm}
	if I1.a < t.nLoc {
		if p, ok := t.pendingLocal[I1.a]; ok && p == n-1 {
			t.pendingLocal[I1.a] = n - 2
		}
	}
	return true
}

// splitConst splits a (reg, const) operand pair of a commutative op.
func splitConst(ld, rd rdesc) (c, r rdesc, ok bool) {
	if ld.kind == rdConst && rd.kind == rdReg {
		return ld, rd, true
	}
	if rd.kind == rdConst && ld.kind == rdReg {
		return rd, ld, true
	}
	return rdesc{}, rdesc{}, false
}

func (t *regTranslator) unary(op uint16) {
	n := len(t.stk)
	sd := t.stk[n-1]
	if sd.kind == rdConst {
		if v, ok := foldUnary(op, sd.val); ok {
			t.stk = t.stk[:n-1]
			t.push(rdesc{kind: rdConst, val: v})
			t.stats.Folds++
			return
		}
	}
	dstSlot := n - 1
	dst := t.home(dstSlot)
	va := t.vnOfDesc(sd)
	key := exprKey{op: op, va: va}
	pure := regPure(op)
	var vnVal uint32
	if pure {
		var known bool
		if vnVal, known = t.exprs[key]; !known {
			t.nextVN++
			vnVal = t.nextVN
			t.exprs[key] = vnVal
		}
		if reg, ok := t.avail[vnVal]; ok && t.vnOf[reg] == vnVal {
			t.readReg(reg)
			t.stk = t.stk[:dstSlot]
			t.push(rdesc{kind: rdReg, reg: reg, vn: vnVal})
			t.stats.Props++
			t.cleanDeadTail()
			return
		}
	}
	t.ensureReg(dstSlot)
	t.prepWriteBelow(dst, dstSlot)
	sr := t.stk[dstSlot].reg
	t.stk = t.stk[:dstSlot]
	t.readReg(sr)
	t.emit(ins{op: op, a: dst, b: sr})
	vn := t.noteWrite(dst, -1)
	if pure {
		vn = vnVal
		t.vnOf[dst] = vn
		t.avail[vn] = dst
	}
	t.push(rdesc{kind: rdReg, reg: dst, vn: vn})
}
