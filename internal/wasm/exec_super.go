package wasm

import (
	"encoding/binary"
	"math"
	"sync/atomic"
)

// superIdiom is one compiled idiom-template loop. Per entry it re-derives
// the trip count, then either proves the whole trip safe (every access
// span in bounds, every page hot at the current paging generation) and
// runs raw, or falls back to a checked per-iteration loop that replays the
// exact interpreter-order memLoad*/memStore* sequence. Slot-home temporaries
// are not materialised on exit: the register allocator's per-block LVN
// reset makes them dead at every block leader, so only the induction
// local (and a reduce accumulator) carries out of the loop.
type superIdiom struct {
	start, end, exitPC int
	l                  int32
	step               uint32
	limitReg           int32 // -1 → limitImm
	limitImm           uint32
	tailCopy           int32 // ≥0: tail was copy L, src — commit src = L on exit

	loads    []accSpec
	hasStore bool
	store    accSpec
	accs     []accSpec // loads then store, program order (built by finish)

	comb      int
	op        uint16 // combBin operator
	fa, fb    superFactor
	dstLd     int  // combFMA/combMinAdd: load matching the store spec
	neg       bool // combFMA: subtract the product
	scaleBits uint64
	scaleLeft bool
	scaleNone bool
	sumLds    []int
	fillBits  uint64
	fillReg   int32 // -1 → fillBits
	accReg    int32
	accLeft   bool // acc = acc + v (true) vs acc = v + acc
	accLd     int
}

// finish derives the program-order access list and bounds the shapes the
// runtime loops are prepared for.
func (t *superIdiom) finish() bool {
	if len(t.loads) > 8 {
		return false
	}
	t.accs = append([]accSpec(nil), t.loads...)
	if t.hasStore {
		t.accs = append(t.accs, t.store)
	}
	for k := range t.accs {
		if len(t.accs[k].aff.terms) > 8 {
			return false
		}
	}
	return true
}

func (t *superIdiom) run(in *Instance, r []uint64, mem *Memory) (int, int64) {
	lim := int64(int32(t.limitImm))
	if t.limitReg >= 0 {
		lim = int64(int32(uint32(r[t.limitReg])))
	}
	cur := int64(int32(uint32(r[t.l])))
	if cur >= lim {
		return t.exitPC, 1
	}
	step := int64(t.step)
	trips := (lim - cur + step - 1) / step
	if cur >= 0 && cur+trips*step <= math.MaxInt32 &&
		t.runRaw(r, mem, cur, trips) {
		r[t.l] = uint64(uint32(cur + trips*step))
		if t.tailCopy >= 0 {
			r[t.tailCopy] = r[t.l] // after the last copy L, src the two agree
		}
		return t.exitPC, trips + 1
	}
	n := t.runChecked(r, mem, cur, lim)
	if t.tailCopy >= 0 {
		r[t.tailCopy] = r[t.l]
	}
	return t.exitPC, n + 1
}

// span is one access's resolved raw-mode address line: addr(k) = a0 + k·s.
type span struct{ a0, s int64 }

type rtFac struct {
	load         bool
	a, s         int64
	v            float64
	scaled, left bool
	scale        float64
}

func mkFac(f superFactor, spans *[9]span, r []uint64) rtFac {
	out := rtFac{scaled: f.scaled, scale: f.scale, left: f.scaleLeft}
	switch f.kind {
	case fnLoad:
		out.load = true
		out.a, out.s = spans[f.ld].a0, spans[f.ld].s
	case fnReg:
		out.v = f64(r[f.reg])
	default:
		out.v = f64(f.bits)
	}
	return out
}

func (f *rtFac) eval(data []byte) float64 {
	v := f.v
	if f.load {
		v = f64(binary.LittleEndian.Uint64(data[f.a:]))
		f.a += f.s
	}
	if f.scaled {
		if f.left {
			v = f.scale * v
		} else {
			v = v * f.scale
		}
	}
	return v
}

// runRaw proves the whole trip safe and, if it can, executes it against
// mem.data directly. The proof is exact arithmetic over int64: every
// access's index line must stay in [0, 2³²) — so the u32 wrapping in the
// checked path is the identity — every byte span must be in bounds, and
// (when a touch hook is installed) every page of every span must be hot
// at the generation read once up front. Under those conditions the
// checked path would perform no touchMiss at all, so the raw path's empty
// hook-call sequence and unchanged fault/eviction counters are
// bit-identical, and no trap is reachable.
func (t *superIdiom) runRaw(r []uint64, mem *Memory, cur, trips int64) bool {
	const maxCo = 1 << 20
	step := int64(t.step)
	last := cur + (trips-1)*step
	nData := int64(len(mem.data))
	n := len(t.accs)
	var spans [9]span
	var pgLo, pgHi [9]int64
	var aligned [9]bool
	for k := 0; k < n; k++ {
		s := &t.accs[k]
		inv := int64(int32(s.aff.c))
		for _, tm := range s.aff.terms {
			co := int64(int32(tm.coeff))
			if co > maxCo || co < -maxCo {
				return false
			}
			inv += co * int64(uint32(r[tm.reg]))
		}
		cL := int64(int32(s.aff.cL))
		if cL > maxCo || cL < -maxCo {
			return false
		}
		m := int64(int32(s.m))
		if m < 1 || m > maxCo {
			return false
		}
		iLo, iHi := inv+cL*cur, inv+cL*last
		if iLo > iHi {
			iLo, iHi = iHi, iLo
		}
		if iLo < 0 || iHi > 1<<33 || iHi*m+int64(s.A) > math.MaxUint32 {
			return false
		}
		off := int64(s.off)
		lo := iLo*m + int64(s.A) + off
		hi := iHi*m + int64(s.A) + off + int64(s.width)
		if hi > nData {
			return false
		}
		spans[k] = span{a0: (inv+cL*cur)*m + int64(s.A) + off, s: cL * m * step}
		pgLo[k], pgHi[k] = lo>>tlbPageBits, (hi-1)>>tlbPageBits
		aligned[k] = m%int64(s.width) == 0 && (int64(s.A)+off)%int64(s.width) == 0
	}
	if mem.touch != nil {
		if mem.gen == nil {
			return false
		}
		g := atomic.LoadUint64(mem.gen)
		total := int64(0)
		for k := 0; k < n; k++ {
			// A width-aligned access can never straddle an EPC-TLB page,
			// so "page hot" really does make every touch a cached no-op.
			// An unaligned access crossing a page is never TLB-cached and
			// would reach the hook on every iteration — not provable here.
			if !aligned[k] {
				return false
			}
			total += pgHi[k] - pgLo[k] + 1
			if total > 64 {
				return false
			}
			for p := uint64(pgLo[k]); p <= uint64(pgHi[k]); p++ {
				e := &mem.tlb[p&tlbMask]
				if e.tag != p+1 || e.gen != g {
					return false
				}
			}
		}
	}

	data := mem.data
	le := binary.LittleEndian
	switch t.comb {
	case combFill:
		bits := t.fillBits
		if t.fillReg >= 0 {
			bits = r[t.fillReg]
		}
		st := spans[n-1]
		for k := trips; k > 0; k-- {
			le.PutUint64(data[st.a0:], bits)
			st.a0 += st.s
		}
	case combCopy:
		src, st := spans[t.fa.ld], spans[n-1]
		for k := trips; k > 0; k-- {
			le.PutUint64(data[st.a0:], le.Uint64(data[src.a0:]))
			src.a0 += src.s
			st.a0 += st.s
		}
	case combBin:
		fa, fb := mkFac(t.fa, &spans, r), mkFac(t.fb, &spans, r)
		st := spans[n-1]
		op := t.op
		for k := trips; k > 0; k-- {
			x, y := fa.eval(data), fb.eval(data)
			var res float64
			switch op {
			case uint16(OpF64Add):
				res = x + y
			case uint16(OpF64Sub):
				res = x - y
			case uint16(OpF64Mul):
				res = x * y
			case uint16(OpF64Div):
				res = x / y
			case uint16(OpF64Min):
				res = math.Min(x, y)
			default:
				res = math.Max(x, y)
			}
			le.PutUint64(data[st.a0:], pf64(res))
			st.a0 += st.s
		}
	case combFMA:
		fa, fb := mkFac(t.fa, &spans, r), mkFac(t.fb, &spans, r)
		d := spans[t.dstLd]
		neg := t.neg
		for k := trips; k > 0; k-- {
			vd := f64(le.Uint64(data[d.a0:]))
			x, y := fa.eval(data), fb.eval(data)
			prod := float64(x * y)
			var res float64
			if neg {
				res = vd - prod
			} else {
				res = vd + prod
			}
			le.PutUint64(data[d.a0:], pf64(res))
			d.a0 += d.s
		}
	case combMinAdd:
		d, a, b := spans[t.dstLd], spans[t.fa.ld], spans[t.fb.ld]
		for k := trips; k > 0; k-- {
			vd := f64(le.Uint64(data[d.a0:]))
			va := f64(le.Uint64(data[a.a0:]))
			vb := f64(le.Uint64(data[b.a0:]))
			le.PutUint64(data[d.a0:], pf64(math.Min(vd, va+vb)))
			d.a0 += d.s
			a.a0 += a.s
			b.a0 += b.s
		}
	case combScaleSum:
		var ls [8]span
		nl := len(t.sumLds)
		for k, ld := range t.sumLds {
			ls[k] = spans[ld]
		}
		st := spans[n-1]
		scale := f64(t.scaleBits)
		for k := trips; k > 0; k-- {
			sum := f64(le.Uint64(data[ls[0].a0:]))
			ls[0].a0 += ls[0].s
			for j := 1; j < nl; j++ {
				sum = sum + f64(le.Uint64(data[ls[j].a0:]))
				ls[j].a0 += ls[j].s
			}
			res := sum
			if !t.scaleNone {
				if t.scaleLeft {
					res = scale * sum
				} else {
					res = sum * scale
				}
			}
			le.PutUint64(data[st.a0:], pf64(res))
			st.a0 += st.s
		}
	case combAccum:
		a := spans[t.accLd]
		acc := f64(r[t.accReg])
		if t.accLeft {
			for k := trips; k > 0; k-- {
				acc = acc + f64(le.Uint64(data[a.a0:]))
				a.a0 += a.s
			}
		} else {
			for k := trips; k > 0; k-- {
				acc = f64(le.Uint64(data[a.a0:])) + acc
				a.a0 += a.s
			}
		}
		r[t.accReg] = pf64(acc)
	}
	return true
}

// runChecked executes the loop one iteration at a time through the same
// memLoad64/memStore64 helpers as the register interpreter, in program
// order — identical bounds traps, touch sequence and TLB stamping. The
// induction local (and accumulator) are committed every iteration so a
// mid-loop trap leaves the frame exactly as the interpreter would.
func (t *superIdiom) runChecked(r []uint64, mem *Memory, cur, lim int64) int64 {
	type cacc struct {
		inv, cL, m, A uint32
		off           uint64
	}
	var cl [9]cacc
	n := len(t.accs)
	for k := 0; k < n; k++ {
		s := &t.accs[k]
		inv := s.aff.c
		for _, tm := range s.aff.terms {
			inv += tm.coeff * uint32(r[tm.reg])
		}
		cl[k] = cacc{inv: inv, cL: s.aff.cL, m: s.m, A: s.A, off: s.off}
	}
	facVal := func(f superFactor, v *[8]float64) float64 {
		var x float64
		switch f.kind {
		case fnLoad:
			x = v[f.ld]
		case fnReg:
			x = f64(r[f.reg])
		default:
			x = f64(f.bits)
		}
		if f.scaled {
			if f.scaleLeft {
				x = f.scale * x
			} else {
				x = x * f.scale
			}
		}
		return x
	}
	var v [8]float64
	var vbits [8]uint64
	lu := uint32(cur)
	lim32 := int32(lim)
	nl := len(t.loads)
	var nIter int64
	for int32(lu) < lim32 {
		for k := 0; k < nl; k++ {
			base := uint64((cl[k].inv+cl[k].cL*lu)*cl[k].m + cl[k].A)
			vbits[k] = memLoad64(mem, base, cl[k].off)
			v[k] = f64(vbits[k])
		}
		var res uint64
		switch t.comb {
		case combFill:
			res = t.fillBits
			if t.fillReg >= 0 {
				res = r[t.fillReg]
			}
		case combCopy:
			res = vbits[t.fa.ld]
		case combBin:
			x, y := facVal(t.fa, &v), facVal(t.fb, &v)
			switch t.op {
			case uint16(OpF64Add):
				res = pf64(x + y)
			case uint16(OpF64Sub):
				res = pf64(x - y)
			case uint16(OpF64Mul):
				res = pf64(x * y)
			case uint16(OpF64Div):
				res = pf64(x / y)
			case uint16(OpF64Min):
				res = pf64(math.Min(x, y))
			default:
				res = pf64(math.Max(x, y))
			}
		case combFMA:
			x, y := facVal(t.fa, &v), facVal(t.fb, &v)
			prod := float64(x * y)
			if t.neg {
				res = pf64(v[t.dstLd] - prod)
			} else {
				res = pf64(v[t.dstLd] + prod)
			}
		case combMinAdd:
			res = pf64(math.Min(v[t.dstLd], v[t.fa.ld]+v[t.fb.ld]))
		case combScaleSum:
			sum := v[t.sumLds[0]]
			for _, ld := range t.sumLds[1:] {
				sum = sum + v[ld]
			}
			switch {
			case t.scaleNone:
				res = pf64(sum)
			case t.scaleLeft:
				res = pf64(f64(t.scaleBits) * sum)
			default:
				res = pf64(sum * f64(t.scaleBits))
			}
		case combAccum:
			acc := f64(r[t.accReg])
			if t.accLeft {
				acc = acc + v[t.accLd]
			} else {
				acc = v[t.accLd] + acc
			}
			r[t.accReg] = pf64(acc)
		}
		if t.hasStore {
			c := &cl[n-1]
			base := uint64((c.inv+c.cL*lu)*c.m + c.A)
			memStore64(mem, base, c.off, res)
		}
		lu += t.step
		r[t.l] = uint64(lu)
		nIter++
	}
	return nIter
}
