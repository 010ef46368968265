package wasm

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"twine/wasmgen"
)

// Trap parity: every tier must produce the same trap kind AND message
// (messages embed the faulting address or operation, so equality pins
// the trap site, the closest thing to a trap PC across code forms).
func trapAllEngines(t *testing.T, bytes []byte, args ...uint64) *Trap {
	t.Helper()
	mod, err := Decode(bytes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	var traps [4]*Trap
	for i, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
		in, err := Instantiate(c, nil, Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		_, err = in.Invoke("run", args...)
		if err == nil {
			t.Fatalf("%v: expected a trap", eng)
		}
		var tr *Trap
		if !errors.As(err, &tr) {
			t.Fatalf("%v: non-trap error %v", eng, err)
		}
		traps[i] = tr
	}
	for i := 1; i < 4; i++ {
		if traps[i].Kind != traps[0].Kind || traps[i].Msg != traps[0].Msg {
			t.Fatalf("trap divergence: interp={%v %q} other[%d]={%v %q}",
				traps[0].Kind, traps[0].Msg, i, traps[i].Kind, traps[i].Msg)
		}
	}
	return traps[0]
}

func TestTierTrapOOB(t *testing.T) {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.F64))
	// (p0*8 + 64) as an affine access — out of bounds for large p0, so
	// the register tier's affine load and the stack tiers' load must
	// report the identical resolved address range.
	f.LocalGet(0).I32Const(8).I32Mul().I32Const(64).I32Add().F64Load(0)
	f.End()
	m.Export("run", f)
	tr := trapAllEngines(t, m.Bytes(), 1<<20)
	if tr.Kind != TrapOOB {
		t.Fatalf("kind = %v, want OOB", tr.Kind)
	}
}

func TestTierTrapDivZero(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	f.LocalGet(0).LocalGet(1).I32DivS()
	f.End()
	m.Export("run", f)
	if tr := trapAllEngines(t, m.Bytes(), 7, 0); tr.Kind != TrapDivZero {
		t.Fatalf("kind = %v, want div-zero", tr.Kind)
	}
	// Overflow case: MinInt32 / -1.
	if tr := trapAllEngines(t, m.Bytes(), 0x80000000, 0xFFFFFFFF); tr.Kind != TrapIntOverflow {
		t.Fatalf("kind = %v, want overflow", tr.Kind)
	}
}

func TestTierTrapUnreachable(t *testing.T) {
	// Condition-dependent unreachable.
	m2 := wasmgen.NewModule()
	g := m2.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	g.LocalGet(0)
	g.If(wasmgen.BlockVoid)
	g.Unreachable()
	g.End()
	g.I32Const(9)
	g.End()
	m2.Export("run", g)
	if tr := trapAllEngines(t, m2.Bytes(), 1); tr.Kind != TrapUnreachable {
		t.Fatalf("kind = %v, want unreachable", tr.Kind)
	}
}

func TestTierTrapCallDepth(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	f.Call(f).End() // infinite recursion
	m.Export("run", f)
	if tr := trapAllEngines(t, m.Bytes()); tr.Kind != TrapCallDepth {
		t.Fatalf("kind = %v, want call-depth", tr.Kind)
	}
}

// TestTierTrapMidLoop traps after observable side effects: the store
// preceding the trapping iteration must be visible identically, pinning
// that the register tier's guards/fallbacks never reorder or elide
// accesses relative to a trap.
func TestTierTrapMidLoop(t *testing.T) {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	m.ExportMemory("memory")
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.F64))
	i := f.AddLocal(wasmgen.I32)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(1 << 20).I32GeS().BrIf(1)
	// A[i] += 1.0 at p0-scaled stride: runs off the end eventually.
	f.LocalGet(i).LocalGet(0).I32Mul().I32Const(64).I32Add()
	f.LocalGet(i).LocalGet(0).I32Mul().I32Const(64).I32Add().F64Load(0)
	f.F64Const(1).F64Add()
	f.F64Store(0)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.F64Const(0)
	f.End()
	m.Export("run", f)

	mod, err := Decode(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	var mems [4][]byte
	var traps [4]*Trap
	for ei, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
		in, err := Instantiate(c, nil, Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		_, err = in.Invoke("run", 4096)
		var tr *Trap
		if !errors.As(err, &tr) {
			t.Fatalf("%v: want trap, got %v", eng, err)
		}
		traps[ei] = tr
		b, _ := in.Memory().Bytes(0, PageSize)
		mems[ei] = append([]byte(nil), b...)
	}
	for i := 1; i < 4; i++ {
		if traps[i].Kind != traps[0].Kind || traps[i].Msg != traps[0].Msg {
			t.Fatalf("trap divergence: %v %q vs %v %q", traps[0].Kind, traps[0].Msg, traps[i].Kind, traps[i].Msg)
		}
		if string(mems[i]) != string(mems[0]) {
			t.Fatalf("memory state diverged before the trap (engine %d)", i)
		}
	}
}

// TestTierCSEPoppedDescriptor is the regression for the popped-descriptor
// clobber: the br_if condition CSE-aliases home(0) (the first add's
// result), while slot 0 holds an unmaterialised constant. Homing that
// constant must not overwrite the condition — materialisation now runs
// before the condition is popped, so the protection machinery re-homes
// it first.
func TestTierCSEPoppedDescriptor(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	f.Block(wasmgen.BlockI32)
	f.LocalGet(0).LocalGet(1).I32Add().Drop() // establishes CSE value in home(0)
	f.I32Const(5)                             // unmaterialised const at slot 0
	f.LocalGet(0).LocalGet(1).I32Add()        // CSE hit: condition aliases home(0)
	f.BrIf(0)                                 // carries the 5 when taken
	f.Drop()
	f.I32Const(7)
	f.End()
	f.End()
	m.Export("run", f)

	if got := runAllEngines(t, m.Bytes(), 0, 0); got != 7 {
		t.Fatalf("fallthrough = %d, want 7", got)
	}
	if got := runAllEngines(t, m.Bytes(), 1, 0); got != 5 {
		t.Fatalf("taken = %d, want 5", got)
	}
	if got := runAllEngines(t, m.Bytes(), 0, 3); got != 5 {
		t.Fatalf("taken = %d, want 5", got)
	}
}

// TestTierNaNOperandOrder pins the float determinism contract: every
// tier must agree bit-for-bit on non-NaN results and on NaN-ness, while
// NaN payload bits are nondeterministic across tiers (the wasm spec
// itself leaves them unspecified, and Go's register allocation decides
// hardware operand order per expression instance — the stack tiers
// share one set of arithmetic arms, the register tier has its own).
// Fusion still never swaps operand order where it controls it: the
// mul-add fusion only fires order-preserving and f64 mul-imm records
// which side its constant came from.
func TestTierNaNOperandOrder(t *testing.T) {
	build := func(f func(*wasmgen.Func)) []byte {
		m := wasmgen.NewModule()
		g := m.Func(wasmgen.Sig(wasmgen.I64, wasmgen.I64).Returns(wasmgen.I64))
		f(g)
		g.End()
		m.Export("run", g)
		return m.Bytes()
	}
	nan1 := uint64(0x7FF8000000000001) // quiet NaN, payload 1
	nan2 := uint64(0x7FF8000000000002) // quiet NaN, payload 2

	// prod-as-lhs add: (p0 * 1.0) + p1 — mul result is the LEFT operand.
	addMulLHS := build(func(g *wasmgen.Func) {
		g.LocalGet(0).F64ReinterpretI64()
		g.F64Const(1).F64Mul()
		g.LocalGet(1).F64ReinterpretI64()
		g.F64Add()
		g.I64ReinterpretF64()
	})
	// const-lhs mul: 1.0 * p0.
	mulConstLHS := build(func(g *wasmgen.Func) {
		g.F64Const(1)
		g.LocalGet(0).F64ReinterpretI64()
		g.F64Mul()
		g.I64ReinterpretF64()
	})
	for _, bin := range [][]byte{addMulLHS, mulConstLHS} {
		mod, err := Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		var got [4]uint64
		for i, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
			in, err := Instantiate(c, nil, Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			out, err := in.Invoke("run", nan1, nan2)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = out[0]
		}
		// The stack tiers share arms: exact equality.
		if got[0] != got[1] {
			t.Errorf("interp/aot diverge: %#x vs %#x", got[0], got[1])
		}
		// All tiers: the result must be a NaN (payload unspecified).
		for i, g := range got {
			if g&0x7FF0000000000000 != 0x7FF0000000000000 || g&0x000FFFFFFFFFFFFF == 0 {
				t.Errorf("engine %d produced a non-NaN %#x from NaN inputs", i, g)
			}
		}
	}
}

// TestTierAffineCSEVN is the regression for the affine-descriptor value
// number: an rdAff operand u32(i*m+A) must carry its own value number
// into LVN keys, not the index register's. With the collision,
// (i+k)+((i*8+16)+k) CSE-reused the earlier i+k for the second addend.
func TestTierAffineCSEVN(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	f.LocalGet(0).LocalGet(1).I32Add()                       // i+k, live in home(0)
	f.LocalGet(0).I32Const(8).I32Mul().I32Const(16).I32Add() // affine i*8+16
	f.LocalGet(1).I32Add()                                   // must NOT CSE-match i+k
	f.I32Add()
	f.End()
	m.Export("run", f)
	// i=1, k=2: (1+2) + ((1*8+16)+2) = 3 + 26 = 29.
	if got := runAllEngines(t, m.Bytes(), 1, 2); got != 29 {
		t.Fatalf("got %d, want 29", got)
	}

	// Reverse poisoning direction: the affine sum computed first must not
	// be reused as a later genuine i+k.
	m2 := wasmgen.NewModule()
	g := m2.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	g.LocalGet(0).I32Const(8).I32Mul().I32Const(16).I32Add()
	g.LocalGet(1).I32Add()             // (i*8+16)+k
	g.LocalGet(0).LocalGet(1).I32Add() // genuine i+k
	g.I32Add()
	g.End()
	m2.Export("run", g)
	if got := runAllEngines(t, m2.Bytes(), 1, 2); got != 29 {
		t.Fatalf("reverse order: got %d, want 29", got)
	}
}

// TestTierCrossAliasedHomes is the regression for the materialisation
// cycle: CSE reuse can leave two slots living in each other's canonical
// homes (compute two expressions, drop both, recompute them in swapped
// slots), which used to send homeSlot/prepWrite into unbounded mutual
// recursion — a fatal stack overflow at translation time. The translator
// now detects the cycle and bails the function to the fused stack form.
func TestTierCrossAliasedHomes(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	f.Block(wasmgen.BlockVoid)
	f.LocalGet(0).LocalGet(1).I32Sub() // E1 computed into home(0)
	f.LocalGet(0).LocalGet(1).I32Add() // E2 computed into home(1)
	f.Drop().Drop()
	f.LocalGet(0).LocalGet(1).I32Add() // CSE hit: slot 0 aliases home(1)
	f.LocalGet(0).LocalGet(1).I32Sub() // CSE hit: slot 1 aliases home(0)
	f.LocalGet(0).BrIf(0)              // materializeAll hits the cycle
	f.Drop().Drop()
	f.End()
	f.I32Const(7)
	f.End()
	m.Export("run", f)
	for _, args := range [][]uint64{{10, 3}, {0, 0}} {
		if got := runAllEngines(t, m.Bytes(), args...); got != 7 {
			t.Fatalf("args %v: got %d, want 7", args, got)
		}
	}
}

// TestTierTeeSetNoopDSE is the regression for the no-op local.set: with
// `local.tee x; local.set x`, the set pops a descriptor already living
// in x and emits nothing — it used to run the overwrite bookkeeping
// anyway, marking the tee's copy (the local's only definition) dead.
func TestTierTeeSetNoopDSE(t *testing.T) {
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	x := f.AddLocal(wasmgen.I32)
	f.LocalGet(0).LocalTee(x).LocalSet(x)
	f.LocalGet(x)
	f.End()
	m.Export("run", f)
	if got := runAllEngines(t, m.Bytes(), 42); got != 42 {
		t.Fatalf("got %d, want 42", got)
	}

	// A genuine later overwrite must still DSE the tee's copy without
	// changing the result.
	m2 := wasmgen.NewModule()
	g := m2.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	y := g.AddLocal(wasmgen.I32)
	g.LocalGet(0).LocalTee(y).LocalSet(y)
	g.I32Const(5).LocalSet(y)
	g.LocalGet(y)
	g.End()
	m2.Export("run", g)
	if got := runAllEngines(t, m2.Bytes(), 42); got != 5 {
		t.Fatalf("overwrite: got %d, want 5", got)
	}
}

// TestNarrowOpsParity runs every narrow load and store at the last valid
// address and one past it (as a bare address and as address plus
// offset), and every unsigned truncation at the last value in range and
// the first one out of it at both ends, and at NaN. Each case runs on all
// four tiers in every pager mode and must match the interpreter on
// results, trap kind and message, memory and touch sequence; the
// interpreter must trap exactly where the case says.
func TestNarrowOpsParity(t *testing.T) {
	// module returns run() -> i64 over one page whose last 16 bytes are
	// 0x81..0x90, so narrow loads there see their sign bits set.
	module := func(body func(f *wasmgen.Func, raw *rawOps)) []byte {
		return withRawOps(func(raw *rawOps) []byte {
			m := wasmgen.NewModule()
			m.Memory(1, 1)
			tail := make([]byte, 16)
			for i := range tail {
				tail[i] = byte(0x81 + i)
			}
			m.Data(PageSize-16, tail)
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			body(f, raw)
			f.End()
			m.Export("run", f)
			return m.Bytes()
		})
	}
	type tcase struct {
		name string
		bin  []byte
		trap string // the interpreter's trap kind, "" for none
	}
	var cases []tcase
	for _, past := range []int32{0, 1} {
		trap := ""
		if past == 1 {
			trap = TrapOOB.String()
		}
		for _, off := range []int32{0, 3} {
			for _, ld := range narrowLoads {
				base := PageSize - ld.width + past - off
				cases = append(cases, tcase{fmt.Sprintf("load%#x/past%d/off%d", ld.op, past, off),
					module(func(f *wasmgen.Func, raw *rawOps) {
						f.I32Const(base)
						raw.mem(f, ld.op, uint32(off))
						if !ld.i64 {
							f.I64ExtendI32U()
						}
					}), trap})
			}
			for _, st := range narrowStores {
				base := PageSize - st.width + past - off
				cases = append(cases, tcase{fmt.Sprintf("store%#x/past%d/off%d", st.op, past, off),
					module(func(f *wasmgen.Func, raw *rawOps) {
						f.I32Const(base)
						if st.i64 {
							f.I64Const(-0x123456789ABCDEF1)
						} else {
							f.I32Const(-0x12345679)
						}
						raw.mem(f, st.op, uint32(off))
						f.I32Const(PageSize - 8).I64Load(0)
					}), trap})
			}
		}
	}
	for _, tr := range truncUOps {
		limit := math.Exp2(32)
		if tr.i64 {
			limit = math.Exp2(64)
		}
		below, aboveNeg := math.Nextafter(limit, 0), math.Nextafter(-1, 0)
		if tr.f32 {
			below = float64(math.Nextafter32(float32(limit), 0))
			aboveNeg = float64(math.Nextafter32(-1, 0))
		}
		for _, v := range []struct {
			x    float64
			trap string
		}{{below, ""}, {limit, TrapIntOverflow.String()}, {aboveNeg, ""},
			{-1, TrapIntOverflow.String()}, {math.NaN(), TrapBadConversion.String()}} {
			cases = append(cases, tcase{fmt.Sprintf("trunc%#x/%g", tr.op, v.x),
				module(func(f *wasmgen.Func, raw *rawOps) {
					if tr.f32 {
						f.F32Const(float32(v.x))
					} else {
						f.F64Const(v.x)
					}
					raw.plain(f, tr.op)
					if !tr.i64 {
						f.I64ExtendI32U()
					}
				}), v.trap})
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for mode := byte(0); mode < 3; mode++ {
				_, outs := compareTiers(t, tc.bin, mode, 2)
				for call, out := range outs[EngineInterp] {
					got := ""
					if out.trap != nil {
						got = out.trap.Kind.String()
					}
					if got != tc.trap {
						t.Errorf("mode %d call %d: interpreter trap %q, want %q", mode, call, got, tc.trap)
					}
				}
			}
		})
	}
}

// TestSuperTrapParityAllKinds walks every TrapKind in trap.go through
// all four engines and requires identical kind, message and exit code.
// Trapping sites sit inside counted self-loops where possible, so the
// superblock tier reaches them where a loop header may be patched (the
// idiom checked fallback, or the register loop for a bailed region). Each
// engine traps twice, with a warm ResetFromSnapshot in between: the
// reset a pool worker gets after a failed request, and the second trap
// must not move.
func TestSuperTrapParityAllKinds(t *testing.T) {
	// loopBody wraps a body in the canonical counted loop over local 0.
	loopMod := func(n int32, mem bool, build func(f *wasmgen.Func, i uint32)) []byte {
		m := wasmgen.NewModule()
		if mem {
			m.Memory(1, 1)
		}
		f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
		i := f.AddLocal(wasmgen.I32)
		acc := f.AddLocal(wasmgen.I64)
		f.I32Const(0).LocalSet(i)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(i).I32Const(n).I32GeS().BrIf(1)
		build(f, i)
		f.LocalGet(acc).I64Add().LocalSet(acc)
		f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(acc)
		f.End()
		m.Export("run", f)
		return m.Bytes()
	}

	// serveMod is the shape of the guest behind Registry.Submit: an
	// i32.load8_u fold over n bytes from off, an iovec stored to memory,
	// then one call to the imported host function outside the loop with
	// the fold as its argument.
	serveMod := func(host string, off uint32, n int32) []byte {
		m := wasmgen.NewModule()
		call := m.ImportFunc("env", host, wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I64))
		m.Memory(1, 1)
		m.Data(64, []byte{1, 2, 3, 4})
		f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
		i := f.AddLocal(wasmgen.I32)
		sum := f.AddLocal(wasmgen.I32)
		f.I32Const(0).LocalSet(i)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(i).I32Const(n).I32GeS().BrIf(1)
		f.LocalGet(sum).LocalGet(i).I32Load8U(off).I32Add().LocalSet(sum)
		f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
		f.I32Const(0).I32Const(int32(off)).I32Store(0)
		f.I32Const(4).LocalGet(sum).I32Store(0)
		f.LocalGet(sum).Call(call)
		f.End()
		m.Export("run", f)
		return m.Bytes()
	}

	failImports := NewImportObject()
	failImports.AddFunc(HostFunc{
		Module: "env", Name: "fail",
		Type: FuncType{Params: []ValueType{I32}, Results: []ValueType{I64}},
		Fn: func(in *Instance, args []uint64) ([]uint64, error) {
			if args[0] >= 3 {
				return nil, fmt.Errorf("boom at %d", args[0])
			}
			return in.Ret1(args[0]), nil
		},
	})
	exitImports := NewImportObject()
	exitImports.AddFunc(HostFunc{
		Module: "env", Name: "exit",
		Type: FuncType{Params: []ValueType{I32}, Results: []ValueType{I64}},
		Fn: func(in *Instance, args []uint64) ([]uint64, error) {
			if args[0] >= 2 {
				return nil, ExitError{Code: uint32(args[0])}
			}
			return in.Ret1(0), nil
		},
	})

	cases := []struct {
		name    string
		kind    TrapKind
		bytes   []byte
		imports *ImportObject
		cfg     func(*Config)
	}{
		{name: "unreachable", kind: TrapUnreachable, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.LocalGet(i).I32Const(5).I32Eq()
			f.If(wasmgen.BlockVoid)
			f.Unreachable()
			f.End()
			f.LocalGet(i).I64ExtendI32S()
		})},
		{name: "oob-load", kind: TrapOOB, bytes: loopMod(1<<17, true, func(f *wasmgen.Func, i uint32) {
			f.LocalGet(i).I32Const(8).I32Mul().I32Const(64).I32Add()
			f.F64Load(0)
			f.I64TruncF64S()
		})},
		{name: "oob-store", kind: TrapOOB, bytes: loopMod(1<<17, true, func(f *wasmgen.Func, i uint32) {
			f.LocalGet(i).I32Const(8).I32Mul()
			f.F64Const(1.5)
			f.F64Store(0)
			f.I64Const(1)
		})},
		{name: "div-zero-i32", kind: TrapDivZero, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.I32Const(100)
			f.I32Const(3).LocalGet(i).I32Sub()
			f.I32DivS()
			f.I64ExtendI32S()
		})},
		{name: "rem-zero-i64", kind: TrapDivZero, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.I64Const(100)
			f.I64Const(4)
			f.LocalGet(i).I64ExtendI32S().I64Sub()
			f.I64RemU()
		})},
		{name: "int-overflow", kind: TrapIntOverflow, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.I32Const(-0x80000000)
			f.I32Const(3).LocalGet(i).I32Sub().I32Const(-1).I32Or()
			f.I32DivS() // hits MinInt32 / -1 once i reaches 4
			f.I64ExtendI32S()
		})},
		{name: "trunc-overflow", kind: TrapIntOverflow, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.LocalGet(i).F64ConvertI32S()
			f.F64Const(1e300).F64Mul() // out of i32 range once i > 0
			f.I32TruncF64S()
			f.I64ExtendI32S()
		})},
		{name: "bad-conversion", kind: TrapBadConversion, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.I32Const(3).LocalGet(i).I32Sub().F64ConvertI32S()
			f.F64Sqrt() // NaN once i > 3
			f.I32TruncF64S()
			f.I64ExtendI32S()
		})},
		{name: "stack-overflow", kind: TrapStackOverflow, bytes: loopMod(8, false, func(f *wasmgen.Func, i uint32) {
			f.LocalGet(i).I64ExtendI32S()
		}), cfg: func(c *Config) { c.StackSlots = 2 }},
		{name: "call-depth", kind: TrapCallDepth, bytes: func() []byte {
			m := wasmgen.NewModule()
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			f.Call(f).End()
			m.Export("run", f)
			return m.Bytes()
		}()},
		{name: "undefined-elem", kind: TrapUndefinedElem, bytes: func() []byte {
			m := wasmgen.NewModule()
			m.Table(4)
			g := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			g.I64Const(1).End()
			m.Elem(0, g)
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			f.I32Const(2).CallIndirect(wasmgen.Sig().Returns(wasmgen.I64)).End()
			m.Export("run", f)
			return m.Bytes()
		}()},
		{name: "indirect-type", kind: TrapIndirectType, bytes: func() []byte {
			m := wasmgen.NewModule()
			m.Table(4)
			g := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
			g.LocalGet(0).End()
			m.Elem(0, g)
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			f.I32Const(0).CallIndirect(wasmgen.Sig().Returns(wasmgen.I64)).End()
			m.Export("run", f)
			return m.Bytes()
		}()},
		{name: "host-error", kind: TrapHostError, imports: failImports, bytes: func() []byte {
			m := wasmgen.NewModule()
			fail := m.ImportFunc("env", "fail", wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I64))
			_ = fail
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			i := f.AddLocal(wasmgen.I32)
			acc := f.AddLocal(wasmgen.I64)
			f.I32Const(0).LocalSet(i)
			f.Block(wasmgen.BlockVoid)
			f.Loop(wasmgen.BlockVoid)
			f.LocalGet(i).I32Const(8).I32GeS().BrIf(1)
			f.LocalGet(i).Call(fail)
			f.LocalGet(acc).I64Add().LocalSet(acc)
			f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
			f.Br(0)
			f.End()
			f.End()
			f.LocalGet(acc)
			f.End()
			m.Export("run", f)
			return m.Bytes()
		}()},
		{name: "exit", kind: TrapExit, imports: exitImports, bytes: func() []byte {
			m := wasmgen.NewModule()
			exit := m.ImportFunc("env", "exit", wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I64))
			f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
			i := f.AddLocal(wasmgen.I32)
			f.I32Const(0).LocalSet(i)
			f.Block(wasmgen.BlockVoid)
			f.Loop(wasmgen.BlockVoid)
			f.LocalGet(i).I32Const(8).I32GeS().BrIf(1)
			f.LocalGet(i).Call(exit).Drop()
			f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
			f.Br(0)
			f.End()
			f.End()
			f.I64Const(0)
			f.End()
			m.Export("run", f)
			return m.Bytes()
		}()},
		// The fold walks off the end of memory mid-loop; the host call
		// is never reached.
		{name: "serve-oob-load8", kind: TrapOOB, imports: failImports, bytes: serveMod("fail", 0xFF00, 512)},
		// The fold completes (1+2+3+4 = 10) and the host call after it
		// fails, or exits with the fold as its code.
		{name: "serve-host-error", kind: TrapHostError, imports: failImports, bytes: serveMod("fail", 64, 256)},
		{name: "serve-exit", kind: TrapExit, imports: exitImports, bytes: serveMod("exit", 64, 256)},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := Decode(tc.bytes)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(mod)
			if err != nil {
				t.Fatal(err)
			}
			var traps [8]*Trap // engine-major, two calls each
			for ei, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
				cfg := Config{Engine: eng}
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				in, err := Instantiate(c, tc.imports, cfg)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				snap := in.Snapshot()
				for call := 0; call < 2; call++ {
					_, err = in.Invoke("run")
					if err == nil {
						t.Fatalf("%v call %d: expected a %v trap", eng, call, tc.kind)
					}
					var tr *Trap
					if !errors.As(err, &tr) {
						t.Fatalf("%v call %d: non-trap error %v", eng, call, err)
					}
					traps[2*ei+call] = tr
					if err := in.ResetFromSnapshot(snap); err != nil {
						t.Fatalf("%v: reset: %v", eng, err)
					}
				}
			}
			if traps[0].Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", traps[0].Kind, tc.kind)
			}
			for i := 1; i < len(traps); i++ {
				if traps[i].Kind != traps[0].Kind || traps[i].Msg != traps[0].Msg || traps[i].Code != traps[0].Code {
					t.Fatalf("trap divergence: interp={%v %q code=%d} engine[%d] call %d={%v %q code=%d}",
						traps[0].Kind, traps[0].Msg, traps[0].Code,
						i/2, i%2, traps[i].Kind, traps[i].Msg, traps[i].Code)
				}
			}
		})
	}
}
