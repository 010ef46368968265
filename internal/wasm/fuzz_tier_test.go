package wasm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"twine/wasmgen"
)

// fuzz_tier_test.go — the cross-tier differential fuzzer (PR 7).
//
// FuzzTierDifferential decodes the fuzz input as a little program spec,
// builds a structured module from it (counted loops over affine f64
// walks, i32/i64 arithmetic with tee/set chains, br_table ladders,
// masked and deliberately-wild memory accesses, sub-word load/store
// walks that run to the end of memory, unsigned truncations,
// serve-shaped byte folds that end in a host call), and runs it under all
// four engines against a fake EPC pager — twice per engine, with a warm
// ResetFromSnapshot in between, the way every pool request ends. Every
// observable of both calls must agree bit-for-bit with the interpreter:
// result slots, trap kind AND message, final linear memory, globals, the
// exact touch-hook call sequence, what the host function saw, and the
// pager's fault/eviction counters. InsRetired is the one observable that
// legitimately differs per tier; it is compared only between the register
// and superblock tiers, and only when no loop became an idiom trace.
//
// The generator is deliberately biased toward the superblock tier's
// attack surface: innermost self-loops that the idiom matcher accepts
// (and near-misses it must bail on), unaligned accesses that disqualify
// the raw trip guard, loop limits that sit at the i32 wrap boundary, and
// pager capacities small enough that guards keep failing mid-trip.

// fakePager is a deterministic FIFO page cache standing in for the SGX
// EPC: a touch to a non-resident page faults it in, evicting (and
// bumping the paging generation, which re-arms every EPC-TLB entry) when
// over capacity. It records the full hook-call sequence.
type fakePager struct {
	gen      uint64 // pointed at by Config.TouchGen in guarded mode
	capPages int
	resident []int64
	faults   int64
	evicts   int64
	log      [][2]int64
}

func (p *fakePager) touch(off, n int64) {
	p.log = append(p.log, [2]int64{off, n})
	for pg := off >> 12; pg <= (off+n-1)>>12; pg++ {
		hit := false
		for _, q := range p.resident {
			if q == pg {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		p.faults++
		if len(p.resident) >= p.capPages {
			p.resident = p.resident[1:]
			p.evicts++
			p.gen++
		}
		p.resident = append(p.resident, pg)
	}
}

// progReader consumes the fuzz input as a byte stream; reads past the
// end return zero so every input decodes to some program.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) u8() byte {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return v
}

func (r *progReader) u16() uint16 {
	return uint16(r.u8()) | uint16(r.u8())<<8
}

func (r *progReader) done() bool { return r.i >= len(r.b) }

// rawOps emits the opcodes wasmgen has no method for: the narrow loads
// and stores and the unsigned truncations. Each is written as a stand-in
// of the same length and swapped in by withRawOps.
type rawOps struct {
	alt bool   // emit the second stand-in of each pair
	ops []byte // wanted opcodes, in emission order
}

// mem emits memory opcode op with offset off.
func (r *rawOps) mem(f *wasmgen.Func, op byte, off uint32) {
	if r.alt {
		f.F32Load(off)
	} else {
		f.I32Load(off)
	}
	r.ops = append(r.ops, op)
}

// plain emits opcode op, which has no immediates.
func (r *rawOps) plain(f *wasmgen.Func, op byte) {
	if r.alt {
		f.I64TruncF64S()
	} else {
		f.I32TruncF64S()
	}
	r.ops = append(r.ops, op)
}

// withRawOps builds a module twice, with each of the two stand-ins of
// every pair. The builds differ exactly at the stand-in opcodes, in
// emission order; those bytes of the first build are replaced with the
// wanted opcodes (memory ops also get alignment hint 0, valid at every
// width).
func withRawOps(build func(raw *rawOps) []byte) []byte {
	a, b := &rawOps{}, &rawOps{alt: true}
	ma, mb := build(a), build(b)
	if len(ma) != len(mb) {
		panic("withRawOps: builds differ in length")
	}
	k := 0
	for i := 0; i < len(ma); i++ {
		if ma[i] == mb[i] {
			continue
		}
		ma[i] = a.ops[k]
		k++
		if ma[i] >= OpI32Load && ma[i] <= OpI64Store32 {
			i++
			ma[i] = 0
		}
	}
	if k != len(a.ops) {
		panic("withRawOps: stand-ins do not match the recorded opcodes")
	}
	return ma
}

// narrowOp is a sub-word load or store: its opcode, whether its value
// is an i64, and its access width in bytes.
type narrowOp struct {
	op    byte
	i64   bool
	width int32
}

// The narrow memory ops and unsigned truncations, shared by the
// generator and by TestNarrowOpsParity.
var (
	narrowStores = []narrowOp{
		{OpI32Store8, false, 1}, {OpI32Store16, false, 2},
		{OpI64Store8, true, 1}, {OpI64Store16, true, 2}, {OpI64Store32, true, 4},
	}
	narrowLoads = []narrowOp{
		{OpI32Load16S, false, 2}, {OpI32Load16U, false, 2},
		{OpI64Load8S, true, 1}, {OpI64Load8U, true, 1}, {OpI64Load16S, true, 2},
		{OpI64Load16U, true, 2}, {OpI64Load32S, true, 4}, {OpI64Load32U, true, 4},
	}
	// max is the generator's clamp, inside the range after rounding to
	// f32 where the operand is f32.
	truncUOps = []struct {
		op       byte
		f32, i64 bool
		max      float64
	}{
		{OpI32TruncF32U, true, false, 4e9}, {OpI32TruncF64U, false, false, 4294967295},
		{OpI64TruncF32U, true, true, 1.8e19}, {OpI64TruncF64U, false, true, 1.8e19},
	}
)

// buildTierModule turns a program spec into module bytes. The module
// imports env.host (i32) -> i32 and exports "run" () -> i64 over a 64 KiB
// memory seeded with deterministic pseudo-random f64s in its first 24 KiB.
func buildTierModule(data []byte) []byte {
	return withRawOps(func(raw *rawOps) []byte { return buildTierProgram(data, raw) })
}

// buildTierProgram is buildTierModule with the stand-ins still in place.
func buildTierProgram(data []byte, raw *rawOps) []byte {
	r := &progReader{b: data}
	m := wasmgen.NewModule()
	host := m.ImportFunc("env", "host", wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	gI := m.Global(wasmgen.I64, true, 7)
	gF := m.Global(wasmgen.F64, true, 0x3FF8000000000000) // 1.5

	// Seed the data region so loads see varied, reproducible values.
	seed := make([]byte, 24<<10)
	x := uint32(0x9E3779B9) ^ uint32(len(data))
	for i := range seed {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		seed[i] = byte(x)
	}
	// Clear f64 exponent bytes so the region decodes to finite smallish
	// floats rather than NaN/Inf soup (NaNs still enter via arithmetic).
	for i := 7; i < len(seed); i += 8 {
		seed[i] &= 0x3F
	}
	m.Data(0, seed)

	f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
	var L [4]uint32
	for i := range L {
		L[i] = f.AddLocal(wasmgen.I32)
	}
	acc := f.AddLocal(wasmgen.I64)
	facc := f.AddLocal(wasmgen.F64)
	ftmp := f.AddLocal(wasmgen.F64)
	bsum := f.AddLocal(wasmgen.I32)

	// forLoop emits the canonical counted-loop shape the register tier
	// lowers to a brcmp header and the superblock tier traces.
	forLoop := func(v uint32, limit func(), step int32, body func()) {
		f.I32Const(0)
		f.LocalSet(v)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(v)
		limit()
		f.I32GeS()
		f.BrIf(1)
		body()
		f.LocalGet(v)
		f.I32Const(step)
		f.I32Add()
		f.LocalSet(v)
		f.Br(0)
		f.End()
		f.End()
	}

	// emitAddr pushes base + 8*(v*stride + c), the affine line the
	// register tier folds into its affine load/store forms.
	emitAddr := func(v uint32, stride, c, base int32) {
		f.LocalGet(v)
		if stride != 1 {
			f.I32Const(stride)
			f.I32Mul()
		}
		if c != 0 {
			f.I32Const(c)
			f.I32Add()
		}
		f.I32Const(8)
		f.I32Mul()
		f.I32Const(base)
		f.I32Add()
	}

	// emitI32Expr pushes one i32, depth-bounded, reading only the loop
	// pool (never writing it — induction discipline stays intact).
	var emitI32Expr func(depth int)
	emitI32Expr = func(depth int) {
		op := r.u8()
		if depth <= 0 || op < 0x40 {
			switch op % 3 {
			case 0:
				f.LocalGet(L[r.u8()%4])
			case 1:
				f.I32Const(int32(int16(r.u16())))
			default:
				f.LocalGet(L[r.u8()%4])
				f.I32Const(int32(r.u8()%29) + 1)
				f.I32RemU() // keep magnitudes small for shift/div fodder
			}
			return
		}
		emitI32Expr(depth - 1)
		switch op % 14 {
		case 0:
			f.I32Eqz()
		case 1:
			f.I32Clz()
		case 2:
			f.I32Popcnt()
		case 3:
			emitI32Expr(depth - 1)
			f.I32Add()
		case 4:
			emitI32Expr(depth - 1)
			f.I32Sub()
		case 5:
			emitI32Expr(depth - 1)
			f.I32Mul()
		case 6:
			emitI32Expr(depth - 1)
			f.I32Xor()
		case 7:
			emitI32Expr(depth - 1)
			f.I32Const(31)
			f.I32And()
			f.I32ShrU()
		case 8:
			emitI32Expr(depth - 1)
			f.I32Const(31)
			f.I32And()
			f.I32Shl()
		case 9:
			emitI32Expr(depth - 1)
			f.I32LtS()
		case 10:
			emitI32Expr(depth - 1)
			f.I32GeU()
		case 11, 12:
			// Division: usually with a |1 guard; occasionally raw, so
			// some inputs trap and exercise divide-trap parity mid-loop.
			emitI32Expr(depth - 1)
			if r.u8() != 0xFF {
				f.I32Const(1)
				f.I32Or()
			}
			if op%2 == 0 {
				f.I32DivS()
			} else {
				f.I32RemU()
			}
		default:
			emitI32Expr(depth - 1)
			f.I32Rotl()
		}
	}

	// Statement emitters -------------------------------------------------

	// stmtAffineLoop is the superblock-idiom generator: one innermost
	// loop whose body is an affine f64 walk in one of the matcher's
	// template shapes — or a near-miss (unaligned base, i32 store mixed
	// in) that must bail to the register interpreter.
	stmtAffineLoop := func() {
		n := int32(r.u8()%48) + 2
		base := int32(r.u16()%2048) * 8
		abase := int32(r.u16()%2048) * 8
		bbase := int32(r.u16()%2048) * 8
		if r.u8()&3 == 0 {
			// Park the walk just under an EPC-TLB page boundary so its
			// address line straddles pages — the regime where the trip
			// guard's alignment/crossing reasoning earns its keep.
			base = (int32(r.u8()%5)+1)*4096 - 8*int32(r.u8()%8)
		}
		stride := int32(r.u8()%3) + 1
		off := int32(r.u8() % 4)
		if r.u8()&3 == 0 {
			base += 4 // unaligned: raw trip guard must refuse, checked path runs
		}
		limit := func() { f.I32Const(n) }
		if r.u8()&3 == 0 {
			f.I32Const(n)
			f.LocalSet(L[3])
			limit = func() { f.LocalGet(L[3]) }
		}
		variant := r.u8() % 6
		trips := 1
		if r.u8()&1 == 0 {
			// Run the walk twice: the first trip faults the pages in, so
			// the second reaches the trip guard with a hot EPC-TLB — the
			// only way the raw path runs under a touch hook.
			trips = 2
		}
		emitWalk := func() {
			forLoop(L[0], limit, 1, func() {
				switch variant {
				case 0: // fill
					emitAddr(L[0], stride, off, base)
					f.F64Const(float64(int8(r.u8())) / 4)
					f.F64Store(0)
				case 1: // copy
					emitAddr(L[0], stride, off, base)
					emitAddr(L[0], 1, 0, abase)
					f.F64Load(0)
					f.F64Store(0)
				case 2: // bin op of two loads
					emitAddr(L[0], stride, off, base)
					emitAddr(L[0], 1, 0, abase)
					f.F64Load(0)
					emitAddr(L[0], stride, 0, bbase)
					f.F64Load(0)
					switch r.u8() % 5 {
					case 0:
						f.F64Add()
					case 1:
						f.F64Sub()
					case 2:
						f.F64Mul()
					case 3:
						f.F64Min()
					default:
						f.F64Max()
					}
					f.F64Store(0)
				case 3: // fma update: dst += a*b (scaled half the time)
					emitAddr(L[0], stride, off, base)
					emitAddr(L[0], stride, off, base)
					f.F64Load(0)
					if r.u8()&1 == 0 {
						f.F64Const(1.5)
						emitAddr(L[0], 1, 0, abase)
						f.F64Load(0)
						f.F64Mul()
					} else {
						emitAddr(L[0], 1, 0, abase)
						f.F64Load(0)
					}
					emitAddr(L[0], stride, 0, bbase)
					f.F64Load(0)
					f.F64Mul()
					if r.u8()&1 == 0 {
						f.F64Add()
					} else {
						f.F64Sub()
					}
					f.F64Store(0)
				case 4: // scaled sum
					emitAddr(L[0], stride, off, base)
					emitAddr(L[0], 1, 0, abase)
					f.F64Load(0)
					emitAddr(L[0], 1, 0, bbase)
					f.F64Load(0)
					f.F64Add()
					f.F64Const(0.25)
					f.F64Mul()
					f.F64Store(0)
				default: // accumulate, no store
					f.LocalGet(facc)
					emitAddr(L[0], stride, off, abase)
					f.F64Load(0)
					f.F64Add()
					f.LocalSet(facc)
				}
			})
		}
		for k := 0; k < trips; k++ {
			emitWalk()
		}
		f.LocalGet(facc)
		f.I32Const(base & 0x3FF8)
		f.F64Load(0)
		f.F64Add()
		f.LocalSet(facc)
	}

	// stmtIntLoop: i32/i64 arithmetic folded into acc through a tee/set
	// chain — the dead-store and materialisation-cycle surface.
	stmtIntLoop := func() {
		n := int32(r.u8()%32) + 1
		forLoop(L[1], func() { f.I32Const(n) }, int32(r.u8()%3)+1, func() {
			// tee chain: L2 = tee(expr), expr uses L2, then overwrite L2.
			emitI32Expr(2)
			f.LocalTee(L[2])
			f.LocalGet(L[2])
			f.I32Const(3)
			f.I32Mul()
			f.I32Add()
			f.LocalSet(L[2])
			f.LocalGet(acc)
			f.LocalGet(L[2])
			f.I64ExtendI32S()
			f.I64Const(int64(r.u16()) | 1)
			f.I64Mul()
			f.I64Xor()
			f.LocalSet(acc)
			if r.u8()&3 == 0 { // swap-shaped copy cycle
				f.LocalGet(L[2])
				f.LocalGet(L[1])
				f.LocalSet(L[2])
				f.Drop()
			}
		})
	}

	// stmtStencilLoop: a 2D jacobi-shaped walk. The neighbour column
	// (j±1) is computed as a standalone i32 temp before being combined
	// with a runtime row term, so after LVN the loop's back-edge becomes
	// "copy L, src" instead of the canonical addimm — the copy-tail
	// idiom path. Row is derived from a local at runtime to keep the
	// folder from collapsing the address line to pure constants.
	stmtStencilLoop := func() {
		n := int32(r.u8()%24) + 2
		const rowStride = 64
		abase := int32(r.u16()%1024) * 8
		bbase := int32(r.u16()%1024) * 8
		if r.u8()&3 == 0 {
			// Park the store line just under an EPC-TLB page boundary.
			bbase = (int32(r.u8()%5)+1)*4096 - 8*int32(r.u8()%4)
		}
		trips := 1
		if r.u8()&1 == 0 {
			trips = 2
		}
		// row = (L1 % 6) + 1, a runtime value in [1, 6].
		f.LocalGet(L[1])
		f.I32Const(6)
		f.I32RemU()
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(L[3])
		addr2 := func(base, colDelta int32) {
			f.LocalGet(L[3])
			f.I32Const(rowStride)
			f.I32Mul()
			f.LocalGet(L[0])
			if colDelta != 0 {
				f.I32Const(colDelta)
				f.I32Add()
			}
			f.I32Add()
			f.I32Const(8)
			f.I32Mul()
			f.I32Const(base)
			f.I32Add()
		}
		for k := 0; k < trips; k++ {
			forLoop(L[0], func() { f.I32Const(n) }, 1, func() {
				addr2(bbase, 0)
				f.F64Const(0.25)
				addr2(abase, 0)
				f.F64Load(0)
				addr2(abase, -1)
				f.F64Load(0)
				f.F64Add()
				addr2(abase, 1)
				f.F64Load(0)
				f.F64Add()
				f.F64Mul()
				f.F64Store(0)
			})
		}
		f.LocalGet(facc)
		f.I32Const(bbase & 0x3FF8)
		f.F64Load(0)
		f.F64Add()
		f.LocalSet(facc)
	}

	// stmtBrTable: a four-deep block ladder dispatched by br_table, each
	// exit depth stamping acc differently (fallthrough included).
	stmtBrTable := func() {
		sel := r.u8()
		f.Block(wasmgen.BlockVoid)
		f.Block(wasmgen.BlockVoid)
		f.Block(wasmgen.BlockVoid)
		f.Block(wasmgen.BlockVoid)
		f.LocalGet(L[r.u8()%4])
		f.I32Const(int32(sel % 7))
		f.I32Add()
		f.BrTable(uint32(r.u8()%4), uint32(r.u8()%4), uint32(r.u8()%4), uint32(r.u8()%4))
		f.End()
		f.LocalGet(acc)
		f.I64Const(0x1111)
		f.I64Add()
		f.LocalSet(acc)
		f.End()
		f.LocalGet(acc)
		f.I64Const(0x2222)
		f.I64Xor()
		f.LocalSet(acc)
		f.End()
		f.LocalGet(acc)
		f.I64Const(3)
		f.I64Mul()
		f.LocalSet(acc)
		f.End()
	}

	// stmtMemWalk: i32 store/load walk (register-loop fodder: stores of
	// non-f64 width never match an idiom) plus a global round-trip.
	stmtMemWalk := func() {
		n := int32(r.u8()%24) + 1
		base := int32(r.u16() % 16000)
		forLoop(L[2], func() { f.I32Const(n) }, 1, func() {
			f.LocalGet(L[2])
			f.I32Const(4)
			f.I32Mul()
			f.I32Const(base)
			f.I32Add()
			emitI32Expr(1)
			f.I32Store(0)
		})
		f.GlobalGet(gI)
		f.LocalGet(acc)
		f.I64Add()
		f.GlobalSet(gI)
		f.I32Const(base)
		f.I32Load(0)
		f.I64ExtendI32U()
		f.LocalGet(acc)
		f.I64Add()
		f.LocalSet(acc)
	}

	// stmtFloatMix: f64 expression with conversions; the truncation is
	// usually clamped but sometimes raw, so conversion traps get parity
	// coverage too.
	stmtFloatMix := func() {
		f.LocalGet(facc)
		f.F64Const(float64(int8(r.u8())))
		f.F64Add()
		f.GlobalGet(gF)
		f.F64Mul()
		f.LocalTee(ftmp)
		f.F64Abs()
		f.F64Sqrt()
		f.LocalGet(ftmp)
		f.F64Min()
		f.LocalSet(facc)
		f.GlobalGet(gF)
		f.F64Const(1.0000001)
		f.F64Mul()
		f.GlobalSet(gF)
		f.LocalGet(facc)
		if r.u8() != 0xFE {
			f.F64Const(1e9)
			f.F64Min()
			f.F64Const(-1e9)
			f.F64Max()
		}
		f.I32TruncF64S()
		f.I64ExtendI32S()
		f.LocalGet(acc)
		f.I64Rotl()
		f.LocalSet(acc)
	}

	// stmtServeLoop is the shape of the guest behind Registry.Submit: an
	// i32.load8_u byte fold (sub-word loads never match an f64 idiom, so
	// the loop stays with runRegBody), then an iovec written to memory and
	// one host call outside the loop that reads it back.
	stmtServeLoop := func() {
		n := int32(r.u8()) + 1
		base := uint32(r.u16() % 24000)
		if r.u8()&3 == 0 {
			base = uint32(r.u8()%5+1)*4096 - uint32(r.u8()%64) // straddle a page
		}
		f.LocalGet(L[1])
		f.LocalSet(bsum)
		forLoop(L[0], func() { f.I32Const(n) }, 1, func() {
			f.LocalGet(bsum)
			f.LocalGet(L[0])
			f.I32Load8U(base)
			f.I32Add()
			f.LocalSet(bsum)
		})
		f.I32Const(0)
		f.I32Const(int32(base))
		f.I32Store(0)
		f.I32Const(4)
		f.LocalGet(bsum)
		f.I32Store(0)
		f.LocalGet(bsum)
		f.Call(host)
		f.I64ExtendI32U()
		f.LocalGet(acc)
		f.I64Xor()
		f.LocalSet(acc)
	}

	// stmtWild: one unmasked access — out-of-bounds trap parity, with
	// the faulting address (and so the trap message) input-controlled.
	stmtWild := func() {
		f.I32Const(int32(uint32(r.u16()) << 4))
		f.F64Load(0)
		f.LocalGet(facc)
		f.F64Add()
		f.LocalSet(facc)
	}

	// stmtNarrow: a sub-word store/load walk (no idiom matches it, so it
	// runs in the register loop), each element read back by another
	// narrow load and folded into acc. A quarter of the walks end on the
	// last byte of memory or one past it.
	stmtNarrow := func() {
		st := narrowStores[r.u8()%byte(len(narrowStores))]
		ld := narrowLoads[r.u8()%byte(len(narrowLoads))]
		n := int32(r.u8()%24) + 1
		base := int32(r.u16() % 24000)
		if r.u8()&3 == 0 {
			base = 1<<16 - n*st.width + int32(r.u8()&1)
		}
		off := uint32(r.u8() % 4)
		addr := func() {
			f.LocalGet(L[2])
			f.I32Const(st.width)
			f.I32Mul()
			f.I32Const(base)
			f.I32Add()
		}
		forLoop(L[2], func() { f.I32Const(n) }, 1, func() {
			addr()
			emitI32Expr(1)
			if st.i64 {
				f.I64ExtendI32S()
			}
			raw.mem(f, st.op, 0)
			f.LocalGet(acc)
			addr()
			raw.mem(f, ld.op, off)
			if !ld.i64 {
				f.I64ExtendI32U()
			}
			f.I64Xor()
			f.LocalSet(acc)
		})
	}

	// stmtTruncU: an unsigned truncation of a float built from facc,
	// usually clamped into range but sometimes raw, so negative, huge and
	// NaN inputs get trap parity too.
	stmtTruncU := func() {
		tr := truncUOps[r.u8()%byte(len(truncUOps))]
		f.LocalGet(facc)
		f.GlobalGet(gF)
		f.F64Mul()
		if r.u8() != 0xFD {
			f.F64Abs()
			f.F64Const(tr.max)
			f.F64Min()
		}
		if tr.f32 {
			f.F32DemoteF64()
		}
		raw.plain(f, tr.op)
		if !tr.i64 {
			f.I64ExtendI32U()
		}
		f.LocalGet(acc)
		f.I64Xor()
		f.LocalSet(acc)
	}

	for s := 0; s < 5 && !r.done(); s++ {
		switch r.u8() % 8 {
		case 0, 1, 2: // bias toward the superblock surface
			stmtAffineLoop()
		case 3:
			stmtIntLoop()
		case 4:
			stmtBrTable()
		case 5:
			stmtMemWalk()
		case 6:
			stmtFloatMix()
		default:
			switch r.u8() & 7 {
			case 0:
				stmtWild()
			case 1:
				stmtStencilLoop()
			case 2:
				stmtServeLoop()
			case 4:
				stmtNarrow()
			case 5:
				stmtTruncU()
			default:
				stmtAffineLoop()
			}
		}
	}

	// Checksum: fold acc, facc and a memory word into the result.
	f.LocalGet(acc)
	f.LocalGet(facc)
	f.I64ReinterpretF64()
	f.I64Xor()
	f.GlobalGet(gI)
	f.I64Add()
	f.I32Const(64)
	f.I64Load(0)
	f.I64Xor()
	f.End()
	m.Export("run", f)
	return m.Bytes()
}

// tierOutcome is everything one call under a tier observes.
type tierOutcome struct {
	res     []uint64
	trap    *Trap
	mem     []byte
	globals []uint64
	faults  int64
	evicts  int64
	log     [][2]int64
	host    [][3]uint32 // per env.host call: argument and the iovec it read
	retired int64       // InsRetired so far; per tier, not part of diffOutcome
}

// runTierOnce executes the compiled module under one engine with a
// fresh fake pager: a cold call, a warm ResetFromSnapshot to the
// instantiation state, and a second call (which runs whether or not the
// first trapped — a pool resets a failed request's worker too). mode: 0 = no
// hook, 1 = plain hook (NoEPCTLB ablation), 2 = hook + generation word
// (the production EPC-TLB shape).
func runTierOnce(c *Compiled, eng Engine, mode byte, capPages int) ([2]tierOutcome, error) {
	var outs [2]tierOutcome
	p := &fakePager{gen: 1, capPages: capPages}
	cfg := Config{Engine: eng}
	switch mode {
	case 0:
	case 1:
		cfg.Touch = p.touch
	default:
		cfg.Touch = p.touch
		cfg.TouchGen = &p.gen
	}
	var host [][3]uint32
	imp := NewImportObject()
	imp.AddFunc(HostFunc{
		Module: "env", Name: "host",
		Type: FuncType{Params: []ValueType{I32}, Results: []ValueType{I32}},
		Fn: func(in *Instance, a []uint64) ([]uint64, error) {
			d := in.mem.data
			call := [3]uint32{uint32(a[0]), binary.LittleEndian.Uint32(d[0:]), binary.LittleEndian.Uint32(d[4:])}
			host = append(host, call)
			return in.Ret1(uint64(call[0]*31 + call[1] ^ call[2])), nil
		},
	})
	in, err := Instantiate(c, imp, cfg)
	if err != nil {
		return outs, err
	}
	snap := in.Snapshot()
	for i := range outs {
		out := &outs[i]
		if i > 0 {
			if err := in.ResetFromSnapshot(snap); err != nil {
				return outs, err
			}
		}
		p.log, host = nil, nil
		res, err := in.Invoke("run")
		if err != nil {
			var tr *Trap
			if !errors.As(err, &tr) {
				return outs, err
			}
			out.trap = tr
		}
		out.res = res
		out.mem = append([]byte(nil), in.mem.data...)
		out.globals = append([]uint64(nil), in.globals...)
		out.faults, out.evicts, out.log, out.host = p.faults, p.evicts, p.log, host
		out.retired = in.InsRetired()
	}
	return outs, nil
}

// diffOutcome reports the first observable on which b diverges from a,
// or "" when they agree bit-for-bit.
func diffOutcome(a, b tierOutcome) string {
	switch {
	case (a.trap == nil) != (b.trap == nil):
		return fmt.Sprintf("trap presence: %v vs %v", a.trap, b.trap)
	case a.trap != nil && (a.trap.Kind != b.trap.Kind || a.trap.Msg != b.trap.Msg):
		return fmt.Sprintf("trap identity: %q vs %q", a.trap.Error(), b.trap.Error())
	case len(a.res) != len(b.res):
		return fmt.Sprintf("result arity: %d vs %d", len(a.res), len(b.res))
	case a.faults != b.faults || a.evicts != b.evicts:
		return fmt.Sprintf("paging: faults %d/%d evicts %d/%d", a.faults, b.faults, a.evicts, b.evicts)
	case len(a.log) != len(b.log):
		return fmt.Sprintf("touch log length: %d vs %d", len(a.log), len(b.log))
	case !bytes.Equal(a.mem, b.mem):
		for i := range a.mem {
			if a.mem[i] != b.mem[i] {
				return fmt.Sprintf("memory byte %d: %#x vs %#x", i, a.mem[i], b.mem[i])
			}
		}
	}
	for i := range a.res {
		if a.res[i] != b.res[i] {
			return fmt.Sprintf("result[%d]: %#x vs %#x", i, a.res[i], b.res[i])
		}
	}
	for i := range a.globals {
		if a.globals[i] != b.globals[i] {
			return fmt.Sprintf("global[%d]: %#x vs %#x", i, a.globals[i], b.globals[i])
		}
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			return fmt.Sprintf("touch[%d]: %v vs %v", i, a.log[i], b.log[i])
		}
	}
	if !slices.Equal(a.host, b.host) {
		return fmt.Sprintf("host calls: %v vs %v", a.host, b.host)
	}
	return ""
}

// compareTiers runs module bytes mb under all four engines in one pager
// mode (see runTierOnce) and requires every tier to match the
// interpreter on every observable. It returns the compiled module and
// each engine's outcomes.
func compareTiers(t *testing.T, mb []byte, mode byte, capPages int) (*Compiled, map[Engine][2]tierOutcome) {
	t.Helper()
	mod, err := Decode(mb)
	if err != nil {
		t.Fatalf("module does not decode: %v", err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatalf("module does not compile: %v", err)
	}
	outs := map[Engine][2]tierOutcome{}
	for _, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
		got, err := runTierOnce(c, eng, mode, capPages)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		outs[eng] = got
		for call := range got {
			if d := diffOutcome(outs[EngineInterp][call], got[call]); d != "" {
				t.Errorf("%v diverged from interp (mode=%d cap=%d call=%d): %s", eng, mode, capPages, call, d)
			}
		}
	}
	return c, outs
}

// checkTierDifferential is the fuzz body: build, run under all four
// engines in the input-selected pager mode, and require every tier to
// match the interpreter on every observable.
func checkTierDifferential(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	c, outs := compareTiers(t, buildTierModule(data[2:]), data[0]%3, int(data[1]%12)+2)
	// A module with no idiom trace runs under the superblock tier exactly
	// as under the register tier, trap or not: same instructions retired.
	if c.SuperStats().Idioms == 0 {
		reg, sup := outs[EngineRegister], outs[EngineSuperblock]
		for call := range reg {
			if reg[call].retired != sup[call].retired {
				t.Errorf("call %d: super retired %d, reg %d, with no idiom trace", call, sup[call].retired, reg[call].retired)
			}
		}
	}
}

func FuzzTierDifferential(f *testing.F) {
	// Seeds replaying the three register-tier miscompile regressions
	// (kept as corpus files too, see testdata/fuzz/FuzzTierDifferential):
	// aliasing between affine accesses whose bases collide, tee/set
	// chains whose dead stores must not be dropped, and swap-shaped copy
	// cycles that force the materialisation order to be right.
	f.Add([]byte(seedAffineAlias))
	f.Add([]byte(seedTeeSetChain))
	f.Add([]byte(seedCopyCycle))
	f.Add([]byte(seedStencilCopyTail))
	f.Add([]byte(seedServeLoop))
	f.Add([]byte(seedNarrowOps))
	// Broad structured seeds: every statement kind, all pager modes.
	f.Add([]byte{2, 4, 0, 10, 0, 0, 0x40, 0, 0x40, 0, 1, 2, 0, 0, 3, 7})
	f.Add([]byte{1, 2, 3, 30, 9, 9, 4, 4, 5, 5, 2, 1, 0, 3, 0xFF, 0x10})
	f.Add([]byte{0, 8, 4, 0x51, 0x12, 0x99, 0x43, 0x21, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{2, 1, 5, 0x80, 0x01, 6, 0x44, 0x55, 0x66, 0x77, 7, 0, 2, 0x20, 0x40, 0x08})
	f.Add([]byte{2, 11, 7, 0xFE, 0xFF, 0xFF, 3, 0x41, 0x42, 0x43, 0x44, 0x45, 6, 0xFE, 2, 2})
	f.Fuzz(checkTierDifferential)
}

// Seed specs for the three PR 4 regressions, decoded by buildTierModule.
const (
	// seedAffineAlias drives stmtAffineLoop twice with identical base
	// words so the destination of the first walk aliases the source of
	// the second — the shape behind the affine-CSE aliasing miscompile.
	seedAffineAlias = "\x02\x06\x00\x10\x40\x00\x40\x00\x40\x00\x01\x00\x01\x03\x00" +
		"\x01\x10\x40\x00\x40\x00\x40\x00\x01\x00\x01\x02\x02"
	// seedTeeSetChain drives stmtIntLoop: LocalTee feeding a LocalSet of
	// the same register — the dead-store elimination regression.
	seedTeeSetChain = "\x01\x04\x03\x10\x02\x43\x01\x00\x00\x07\x00\x03\x04\x00\x03\x07\x01\x00"
	// seedCopyCycle drives stmtIntLoop's swap-shaped copy cycle — the
	// parallel-copy materialisation-cycle regression.
	seedCopyCycle = "\x02\x03\x03\x08\x01\x00\x01\x00\x11\x00\x00\x00\x03\x05\x00\x00\x00\x00"
	// seedStencilCopyTail drives stmtStencilLoop: a jacobi-shaped walk
	// whose LVN'd back-edge is "copy L, src" instead of addimm — the
	// superblock copy-tail idiom path (PR 7).
	seedStencilCopyTail = "\x02\x05\x07\x01\x16\x10\x00\x40\x00\x01\x00"
	// seedServeLoop drives stmtServeLoop twice around a stmtIntLoop (so
	// the second fold is seeded by a non-zero local): a 256-byte fold
	// from address 64, then one that straddles a page, each ending in a
	// host call — the default path of Registry.Submit, under the
	// production EPC-TLB shape with a 3-page pager.
	seedServeLoop = "\x02\x01\x07\x02\xff\x40\x00\x01" +
		"\x03\x08\x01\x00\x01\x00\x11\x00" +
		"\x07\x02\x7f\x00\x00\x00\x01\x21"
	// seedNarrowOps alternates stmtNarrow and stmtTruncU: an
	// i32.store16/i32.load16_s walk, i32.trunc_f64_u, an
	// i64.store32/i64.load32_u walk ending on the last byte of memory,
	// i64.trunc_f64_u, and an i64.store16/i64.load16_u walk.
	seedNarrowOps = "\x02\x04" +
		"\x07\x04\x01\x00\x07\x10\x00\x01\x01\x00\x02" +
		"\x07\x05\x01\x00" +
		"\x07\x04\x04\x07\x03\x00\x00\x00\x00\x00\x01\x34\x12" +
		"\x07\x05\x03\x00" +
		"\x07\x04\x03\x05\x05\x20\x03\x02\x03\x02\x00\x05"
)

// TestTierDifferentialSeeds pins the seed corpus into the plain test
// run (go test executes f.Add seeds, but not files added later to
// testdata; this keeps both paths exercised without -fuzz).
func TestTierDifferentialSeeds(t *testing.T) {
	for i, s := range []string{seedAffineAlias, seedTeeSetChain, seedCopyCycle, seedStencilCopyTail, seedServeLoop, seedNarrowOps} {
		t.Run(fmt.Sprintf("regression%d", i), func(t *testing.T) {
			checkTierDifferential(t, []byte(s))
		})
	}
}

// TestStencilSeedProducesCopyTail pins the generator↔matcher contract
// behind seedStencilCopyTail: the stencil statement must lower to loops
// whose back-edge is a copy (LVN reused the j+1 temp) and the matcher
// must still take them as idiom traces. If either side drifts — the
// register tier stops producing copy tails here, or the matcher stops
// accepting them — the fuzzer silently loses this surface; this test
// makes the loss loud.
func TestStencilSeedProducesCopyTail(t *testing.T) {
	prog := []byte(seedStencilCopyTail)[2:]
	mod, err := Decode(buildTierModule(prog))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	fn := &c.reg()[0] // module-defined functions only: "run"
	if !fn.reg {
		t.Fatal("stencil seed bailed to fused form")
	}
	copyTails := 0
	for pc := range fn.code {
		i := &fn.code[pc]
		if i.op == rOpBr && int(i.a) <= pc && fn.code[pc-1].op == rOpCopy {
			copyTails++
		}
	}
	if copyTails == 0 {
		t.Fatal("stencil seed produced no copy-tail back-edges; generator no longer covers the copy-tail path")
	}
	st := c.SuperStats()
	if st.Idioms < copyTails {
		t.Fatalf("copy-tail loops fell off the idiom path: %d copy tails but stats %+v", copyTails, st)
	}
}

// TestServeSeedReachesHostCall pins the generator side of seedServeLoop
// the way TestStencilSeedProducesCopyTail does for the stencil: the
// function must reach the superblock tier in register form with its three
// loops left to the register interpreter, and both host calls must happen,
// cold and after the warm reset, or the fuzzer has silently lost the
// serving shape.
func TestServeSeedReachesHostCall(t *testing.T) {
	mod, err := Decode(buildTierModule([]byte(seedServeLoop)[2:]))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := runTierOnce(c, EngineSuperblock, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for call, out := range outs {
		if out.trap != nil || len(out.host) != 2 {
			t.Errorf("call %d: trap %v, %d host calls, want none and 2", call, out.trap, len(out.host))
		}
	}
	if st := c.SuperStats(); st.RegBail != 0 || st.Loops != 3 || st.Bailouts != 3 {
		t.Errorf("serve seed loops left the register loop: %+v", st)
	}
}
