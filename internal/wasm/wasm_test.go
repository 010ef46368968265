package wasm_test

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"twine/internal/wasm"
	"twine/wasmgen"
)

var engines = []wasm.Engine{wasm.EngineInterp, wasm.EngineAOT, wasm.EngineRegister, wasm.EngineSuperblock}

// instantiate builds, decodes, compiles and instantiates a module under
// the given engine.
func instantiate(t *testing.T, m *wasmgen.Module, e wasm.Engine, imp *wasm.ImportObject) *wasm.Instance {
	t.Helper()
	mod, err := wasm.Decode(m.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: e})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return in
}

// eachEngine runs a subtest under every engine; behaviour must match.
func eachEngine(t *testing.T, fn func(t *testing.T, e wasm.Engine)) {
	t.Helper()
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) { fn(t, e) })
	}
}

func TestAdd(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
		f.LocalGet(0).LocalGet(1).I32Add().End()
		m.Export("add", f)
		in := instantiate(t, m, e, nil)
		got, err := in.Invoke("add", 2, 40)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got[0] != 42 {
			t.Errorf("add(2,40) = %d", got[0])
		}
		// i32 wrap-around.
		got, _ = in.Invoke("add", 0xFFFFFFFF, 1)
		if got[0] != 0 {
			t.Errorf("add(-1,1) = %d, want 0 (i32 wrap)", got[0])
		}
	})
}

func TestArithmeticOps(t *testing.T) {
	// One compact module per op; expected values computed in Go.
	type tc struct {
		name  string
		build func(f *wasmgen.Func)
		args  []uint64
		want  uint64
	}
	u32 := func(v int32) uint64 { return uint64(uint32(v)) }
	cases := []tc{
		{"i32.sub", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Sub() }, []uint64{5, 9}, u32(-4)},
		{"i32.mul", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Mul() }, []uint64{7, 6}, 42},
		{"i32.div_s", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32DivS() }, []uint64{u32(-7), 2}, u32(-3)},
		{"i32.div_u", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32DivU() }, []uint64{u32(-7), 2}, (4294967289) / 2},
		{"i32.rem_s", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32RemS() }, []uint64{u32(-7), 3}, u32(-1)},
		{"i32.and", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32And() }, []uint64{0b1100, 0b1010}, 0b1000},
		{"i32.or", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Or() }, []uint64{0b1100, 0b1010}, 0b1110},
		{"i32.xor", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Xor() }, []uint64{0b1100, 0b1010}, 0b0110},
		{"i32.shl", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Shl() }, []uint64{1, 35}, 8}, // shift mod 32
		{"i32.shr_s", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32ShrS() }, []uint64{u32(-8), 1}, u32(-4)},
		{"i32.shr_u", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32ShrU() }, []uint64{u32(-8), 1}, u32(-8) >> 1},
		{"i32.rotl", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32Rotl() }, []uint64{0x80000001, 1}, 0x00000003},
		{"i32.clz", func(f *wasmgen.Func) { f.LocalGet(0).I32Clz() }, []uint64{1}, 31},
		{"i32.ctz", func(f *wasmgen.Func) { f.LocalGet(0).I32Ctz() }, []uint64{8}, 3},
		{"i32.popcnt", func(f *wasmgen.Func) { f.LocalGet(0).I32Popcnt() }, []uint64{0xF0F0}, 8},
		{"i32.eqz", func(f *wasmgen.Func) { f.LocalGet(0).I32Eqz() }, []uint64{0}, 1},
		{"i32.lt_s", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32LtS() }, []uint64{u32(-1), 1}, 1},
		{"i32.lt_u", func(f *wasmgen.Func) { f.LocalGet(0).LocalGet(1).I32LtU() }, []uint64{u32(-1), 1}, 0},
	}
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				m := wasmgen.NewModule()
				params := make([]wasmgen.ValType, len(c.args))
				for i := range params {
					params[i] = wasmgen.I32
				}
				f := m.Func(wasmgen.Signature{Params: params, Results: []wasmgen.ValType{wasmgen.I32}})
				c.build(f)
				f.End()
				m.Export("f", f)
				in := instantiate(t, m, e, nil)
				got, err := in.Invoke("f", c.args...)
				if err != nil {
					t.Fatalf("Invoke: %v", err)
				}
				if got[0] != c.want {
					t.Errorf("%s = %#x, want %#x", c.name, got[0], c.want)
				}
			})
		}
	})
}

func TestI64Ops(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I64, wasmgen.I64).Returns(wasmgen.I64))
		f.LocalGet(0).LocalGet(1).I64Mul().I64Const(1).I64Add().End()
		m.Export("muladd1", f)
		in := instantiate(t, m, e, nil)
		got, err := in.Invoke("muladd1", uint64(1<<40), 3)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got[0] != 3*(1<<40)+1 {
			t.Errorf("got %d", got[0])
		}
	})
}

func TestFloatOps(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.F64, wasmgen.F64).Returns(wasmgen.F64))
		// sqrt(a*a + b*b)
		f.LocalGet(0).LocalGet(0).F64Mul()
		f.LocalGet(1).LocalGet(1).F64Mul()
		f.F64Add().F64Sqrt().End()
		m.Export("hypot", f)
		in := instantiate(t, m, e, nil)
		got, err := in.Invoke("hypot", math.Float64bits(3), math.Float64bits(4))
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if v := math.Float64frombits(got[0]); v != 5 {
			t.Errorf("hypot(3,4) = %v", v)
		}
	})
}

func TestFloatNaNAndSigns(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		fmin := m.Func(wasmgen.Sig(wasmgen.F64, wasmgen.F64).Returns(wasmgen.F64))
		fmin.LocalGet(0).LocalGet(1).F64Min().End()
		m.Export("min", fmin)
		fneg := m.Func(wasmgen.Sig(wasmgen.F64).Returns(wasmgen.F64))
		fneg.LocalGet(0).F64Neg().End()
		m.Export("neg", fneg)
		in := instantiate(t, m, e, nil)

		got, _ := in.Invoke("min", math.Float64bits(math.NaN()), math.Float64bits(1))
		if !math.IsNaN(math.Float64frombits(got[0])) {
			t.Error("min(NaN,1) not NaN")
		}
		got, _ = in.Invoke("min", math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0))
		if math.Signbit(math.Float64frombits(got[0])) == false {
			t.Error("min(-0,+0) lost the sign")
		}
		got, _ = in.Invoke("neg", math.Float64bits(math.NaN()))
		if !math.IsNaN(math.Float64frombits(got[0])) {
			t.Error("neg(NaN) not NaN")
		}
	})
}

func TestDivTraps(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
		f.LocalGet(0).LocalGet(1).I32DivS().End()
		m.Export("div", f)
		in := instantiate(t, m, e, nil)

		_, err := in.Invoke("div", 1, 0)
		var tr *wasm.Trap
		if !errors.As(err, &tr) || tr.Kind != wasm.TrapDivZero {
			t.Errorf("div by zero = %v, want TrapDivZero", err)
		}
		minI32 := uint64(uint32(0x80000000))
		negOne := uint64(uint32(0xFFFFFFFF))
		_, err = in.Invoke("div", minI32, negOne)
		if !errors.As(err, &tr) || tr.Kind != wasm.TrapIntOverflow {
			t.Errorf("MinInt32/-1 = %v, want TrapIntOverflow", err)
		}
		// The instance stays usable after a trap.
		got, err := in.Invoke("div", 10, 2)
		if err != nil || got[0] != 5 {
			t.Errorf("post-trap div = %v, %v", got, err)
		}
	})
}

func TestTruncTraps(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.F64).Returns(wasmgen.I32))
		f.LocalGet(0).I32TruncF64S().End()
		m.Export("trunc", f)
		in := instantiate(t, m, e, nil)

		got, err := in.Invoke("trunc", math.Float64bits(-3.9))
		if err != nil || int32(got[0]) != -3 {
			t.Errorf("trunc(-3.9) = %d, %v", int32(got[0]), err)
		}
		var tr *wasm.Trap
		if _, err = in.Invoke("trunc", math.Float64bits(math.NaN())); !errors.As(err, &tr) || tr.Kind != wasm.TrapBadConversion {
			t.Errorf("trunc(NaN) = %v", err)
		}
		if _, err = in.Invoke("trunc", math.Float64bits(3e10)); !errors.As(err, &tr) || tr.Kind != wasm.TrapIntOverflow {
			t.Errorf("trunc(3e10) = %v", err)
		}
	})
}

// TestLoopSum: iterative control flow with block/loop/br_if.
func TestLoopSum(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32), wasmgen.I32, wasmgen.I32) // locals: i, acc
		// for i := 0; i < n; i++ { acc += i }
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(1).LocalGet(0).I32GeS().BrIf(1) // i >= n -> break
		f.LocalGet(2).LocalGet(1).I32Add().LocalSet(2)
		f.LocalGet(1).I32Const(1).I32Add().LocalSet(1)
		f.Br(0)
		f.End() // loop
		f.End() // block
		f.LocalGet(2)
		f.End()
		m.Export("sum", f)
		in := instantiate(t, m, e, nil)
		got, err := in.Invoke("sum", 100)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got[0] != 4950 {
			t.Errorf("sum(100) = %d, want 4950", got[0])
		}
	})
}

func TestIfElse(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		f.LocalGet(0).If(wasmgen.BlockI32)
		f.I32Const(111)
		f.Else()
		f.I32Const(222)
		f.End()
		f.End()
		m.Export("pick", f)
		in := instantiate(t, m, e, nil)
		if got, _ := in.Invoke("pick", 1); got[0] != 111 {
			t.Errorf("pick(1) = %d", got[0])
		}
		if got, _ := in.Invoke("pick", 0); got[0] != 222 {
			t.Errorf("pick(0) = %d", got[0])
		}
	})
}

func TestBrTable(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		f.Block(wasmgen.BlockVoid) // label 2 -> 300
		f.Block(wasmgen.BlockVoid) // label 1 -> 200
		f.Block(wasmgen.BlockVoid) // label 0 -> 100
		f.LocalGet(0)
		f.BrTable(0, 1, 2) // case 0 -> l0, case 1 -> l1, default -> l2
		f.End()
		f.I32Const(100).Return()
		f.End()
		f.I32Const(200).Return()
		f.End()
		f.I32Const(300).Return()
		f.End()
		m.Export("switch", f)
		in := instantiate(t, m, e, nil)
		for _, tc := range []struct{ arg, want uint64 }{{0, 100}, {1, 200}, {2, 300}, {99, 300}} {
			got, err := in.Invoke("switch", tc.arg)
			if err != nil {
				t.Fatalf("Invoke(%d): %v", tc.arg, err)
			}
			if got[0] != tc.want {
				t.Errorf("switch(%d) = %d, want %d", tc.arg, got[0], tc.want)
			}
		}
	})
}

func TestRecursionFactorial(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I64).Returns(wasmgen.I64))
		f.LocalGet(0).I64Eqz().If(wasmgen.BlockI64)
		f.I64Const(1)
		f.Else()
		f.LocalGet(0)
		f.LocalGet(0).I64Const(1).I64Sub().Call(f)
		f.I64Mul()
		f.End()
		f.End()
		m.Export("fact", f)
		in := instantiate(t, m, e, nil)
		got, err := in.Invoke("fact", 20)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got[0] != 2432902008176640000 {
			t.Errorf("fact(20) = %d", got[0])
		}
	})
}

func TestInfiniteRecursionTraps(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig().Returns())
		f.Call(f).End()
		m.Export("loop", f)
		in := instantiate(t, m, e, nil)
		_, err := in.Invoke("loop")
		var tr *wasm.Trap
		if !errors.As(err, &tr) || tr.Kind != wasm.TrapCallDepth {
			t.Errorf("infinite recursion = %v, want TrapCallDepth", err)
		}
	})
}

func TestCallIndirect(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		sig := wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32)
		double := m.Func(sig)
		double.LocalGet(0).I32Const(2).I32Mul().End()
		triple := m.Func(sig)
		triple.LocalGet(0).I32Const(3).I32Mul().End()
		other := m.Func(wasmgen.Sig().Returns()) // wrong signature
		other.End()

		m.Table(4)
		m.Elem(0, double, triple, other)

		disp := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
		disp.LocalGet(1).LocalGet(0).CallIndirect(sig).End()
		m.Export("dispatch", disp)

		in := instantiate(t, m, e, nil)
		if got, _ := in.Invoke("dispatch", 0, 21); got[0] != 42 {
			t.Errorf("dispatch(0,21) = %d", got[0])
		}
		if got, _ := in.Invoke("dispatch", 1, 7); got[0] != 21 {
			t.Errorf("dispatch(1,7) = %d", got[0])
		}
		var tr *wasm.Trap
		if _, err := in.Invoke("dispatch", 2, 1); !errors.As(err, &tr) || tr.Kind != wasm.TrapIndirectType {
			t.Errorf("wrong-type dispatch = %v", err)
		}
		if _, err := in.Invoke("dispatch", 3, 1); !errors.As(err, &tr) || tr.Kind != wasm.TrapUndefinedElem {
			t.Errorf("uninitialised dispatch = %v", err)
		}
		if _, err := in.Invoke("dispatch", 99, 1); !errors.As(err, &tr) || tr.Kind != wasm.TrapUndefinedElem {
			t.Errorf("out-of-table dispatch = %v", err)
		}
	})
}

func TestMemoryOps(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		m.Memory(1, 2)
		m.Data(8, []byte{0xDE, 0xAD, 0xBE, 0xEF})
		store := m.Func(wasmgen.Sig(wasmgen.I32, wasmgen.I64).Returns())
		store.LocalGet(0).LocalGet(1).I64Store(0).End()
		load := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I64))
		load.LocalGet(0).I64Load(0).End()
		loadB := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		loadB.LocalGet(0).I32Load8U(0).End()
		size := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
		size.MemorySize().End()
		grow := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		grow.LocalGet(0).MemoryGrow().End()
		m.Export("store", store)
		m.Export("load", load)
		m.Export("load8", loadB)
		m.Export("size", size)
		m.Export("grow", grow)

		in := instantiate(t, m, e, nil)
		// Data segment landed.
		if got, _ := in.Invoke("load8", 8); got[0] != 0xDE {
			t.Errorf("data[8] = %#x", got[0])
		}
		// Store/load round trip.
		if _, err := in.Invoke("store", 100, 0x1122334455667788); err != nil {
			t.Fatalf("store: %v", err)
		}
		if got, _ := in.Invoke("load", 100); got[0] != 0x1122334455667788 {
			t.Errorf("load = %#x", got[0])
		}
		// memory.size / grow.
		if got, _ := in.Invoke("size"); got[0] != 1 {
			t.Errorf("size = %d", got[0])
		}
		if got, _ := in.Invoke("grow", 1); int32(got[0]) != 1 {
			t.Errorf("grow(1) = %d", int32(got[0]))
		}
		if got, _ := in.Invoke("size"); got[0] != 2 {
			t.Errorf("size after grow = %d", got[0])
		}
		// Growing past the max fails with -1.
		if got, _ := in.Invoke("grow", 1); int32(got[0]) != -1 {
			t.Errorf("grow past max = %d, want -1", int32(got[0]))
		}
		// OOB traps.
		var tr *wasm.Trap
		if _, err := in.Invoke("load", 2*65536-4); !errors.As(err, &tr) || tr.Kind != wasm.TrapOOB {
			t.Errorf("oob load = %v", err)
		}
	})
}

func TestGlobals(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		g := m.Global(wasmgen.I64, true, 7)
		get := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
		get.GlobalGet(g).End()
		bump := m.Func(wasmgen.Sig().Returns())
		bump.GlobalGet(g).I64Const(1).I64Add().GlobalSet(g).End()
		m.Export("get", get)
		m.Export("bump", bump)
		in := instantiate(t, m, e, nil)
		in.Invoke("bump")
		in.Invoke("bump")
		if got, _ := in.Invoke("get"); got[0] != 9 {
			t.Errorf("global = %d, want 9", got[0])
		}
	})
}

func TestHostFunctions(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		hostMul := m.ImportFunc("env", "mul", wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
		f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		f.LocalGet(0).I32Const(3).Call(hostMul).End()
		m.Export("triple", f)

		var calls int
		imp := wasm.NewImportObject()
		imp.AddFunc(wasm.HostFunc{
			Module: "env", Name: "mul",
			Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32, wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
			Fn: func(in *wasm.Instance, args []uint64) ([]uint64, error) {
				calls++
				return []uint64{uint64(uint32(args[0]) * uint32(args[1]))}, nil
			},
		})
		in := instantiate(t, m, e, imp)
		got, err := in.Invoke("triple", 14)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got[0] != 42 || calls != 1 {
			t.Errorf("triple(14) = %d (%d calls)", got[0], calls)
		}
	})
}

func TestHostErrorsAndExit(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		fail := m.ImportFunc("env", "fail", wasmgen.Sig().Returns())
		exit := m.ImportFunc("env", "exit", wasmgen.Sig(wasmgen.I32).Returns())
		f := m.Func(wasmgen.Sig().Returns())
		f.Call(fail).End()
		g := m.Func(wasmgen.Sig().Returns())
		g.I32Const(3).Call(exit).End()
		m.Export("callFail", f)
		m.Export("callExit", g)

		bang := errors.New("host boom")
		imp := wasm.NewImportObject()
		imp.AddFunc(wasm.HostFunc{Module: "env", Name: "fail", Type: wasm.FuncType{},
			Fn: func(in *wasm.Instance, args []uint64) ([]uint64, error) { return nil, bang }})
		imp.AddFunc(wasm.HostFunc{Module: "env", Name: "exit",
			Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32}},
			Fn: func(in *wasm.Instance, args []uint64) ([]uint64, error) {
				return nil, wasm.ExitError{Code: uint32(args[0])}
			}})
		in := instantiate(t, m, e, imp)

		_, err := in.Invoke("callFail")
		if !errors.Is(err, bang) {
			t.Errorf("host error not propagated: %v", err)
		}
		_, err = in.Invoke("callExit")
		var tr *wasm.Trap
		if !errors.As(err, &tr) || tr.Kind != wasm.TrapExit || tr.Code != 3 {
			t.Errorf("exit = %v, want TrapExit code 3", err)
		}
	})
}

func TestStartFunctionRuns(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		g := m.Global(wasmgen.I32, true, 0)
		init := m.Func(wasmgen.Sig().Returns())
		init.I32Const(77).GlobalSet(g).End()
		m.Start(init)
		get := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
		get.GlobalGet(g).End()
		m.Export("get", get)
		in := instantiate(t, m, e, nil)
		if got, _ := in.Invoke("get"); got[0] != 77 {
			t.Errorf("start did not run: global = %d", got[0])
		}
	})
}

func TestSelectAndDrop(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
		f.I32Const(999).Drop()
		f.I32Const(10).I32Const(20).LocalGet(0).Select()
		f.End()
		m.Export("sel", f)
		in := instantiate(t, m, e, nil)
		if got, _ := in.Invoke("sel", 1); got[0] != 10 {
			t.Errorf("sel(1) = %d", got[0])
		}
		if got, _ := in.Invoke("sel", 0); got[0] != 20 {
			t.Errorf("sel(0) = %d", got[0])
		}
	})
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 5, 6, 7, 8},
		"truncated": append([]byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}, 1, 100),
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := wasm.Decode(buf); err == nil {
				t.Error("Decode accepted malformed module")
			}
		})
	}
	// A valid module decodes.
	m := wasmgen.NewModule()
	f := m.Func(wasmgen.Sig().Returns())
	f.End()
	m.Export("f", f)
	if _, err := wasm.Decode(m.Bytes()); err != nil {
		t.Errorf("valid module rejected: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	build := func(build func(f *wasmgen.Func)) error {
		m := wasmgen.NewModule()
		m.Memory(1, 1)
		f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
		build(f)
		f.End()
		m.Export("f", f)
		mod, err := wasm.Decode(m.Bytes())
		if err != nil {
			return err
		}
		_, err = wasm.Compile(mod)
		return err
	}
	cases := map[string]func(f *wasmgen.Func){
		"stack underflow":   func(f *wasmgen.Func) { f.I32Add() },
		"type mismatch":     func(f *wasmgen.Func) { f.I64Const(1).I32Const(1).I32Add() },
		"bad label":         func(f *wasmgen.Func) { f.I32Const(1).Br(7) },
		"unbalanced result": func(f *wasmgen.Func) { f.I32Const(1).I32Const(2) },
		"bad local":         func(f *wasmgen.Func) { f.LocalGet(9) },
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if err := build(b); !errors.Is(err, wasm.ErrValidation) {
				t.Errorf("got %v, want ErrValidation", err)
			}
		})
	}
}

func TestUnreachableCodeValidates(t *testing.T) {
	// Code after return is dead but must still parse and validate.
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		m := wasmgen.NewModule()
		f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
		f.I32Const(1).Return()
		f.I32Const(2).I32Const(3).I32Add().Drop()
		f.End()
		m.Export("f", f)
		in := instantiate(t, m, e, nil)
		if got, _ := in.Invoke("f"); got[0] != 1 {
			t.Errorf("f() = %d", got[0])
		}
	})
}

func TestMemoryCapBelowModuleMin(t *testing.T) {
	m := wasmgen.NewModule()
	m.Memory(10, 20) // wants 640 KiB
	f := m.Func(wasmgen.Sig().Returns())
	f.End()
	m.Export("f", f)
	mod, _ := wasm.Decode(m.Bytes())
	c, _ := wasm.Compile(mod)
	if _, err := wasm.Instantiate(c, nil, wasm.Config{MaxMemoryPages: 5}); err == nil {
		t.Error("instantiation succeeded with memory cap below module minimum")
	}
}

func TestTouchHookObservesAccesses(t *testing.T) {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig().Returns())
	f.I32Const(0).I64Const(1).I64Store(0)
	f.I32Const(64).I64Load(0).Drop()
	f.End()
	m.Export("f", f)
	mod, _ := wasm.Decode(m.Bytes())
	c, _ := wasm.Compile(mod)
	var touched int64
	in, err := wasm.Instantiate(c, nil, wasm.Config{
		Touch: func(off, n int64) { touched += n },
	})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if _, err := in.Invoke("f"); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if touched != 16 {
		t.Errorf("touched %d bytes, want 16", touched)
	}
}

func TestUnresolvedImportFails(t *testing.T) {
	m := wasmgen.NewModule()
	m.ImportFunc("env", "missing", wasmgen.Sig().Returns())
	f := m.Func(wasmgen.Sig().Returns())
	f.End()
	m.Export("f", f)
	mod, _ := wasm.Decode(m.Bytes())
	c, _ := wasm.Compile(mod)
	if _, err := wasm.Instantiate(c, wasm.NewImportObject(), wasm.Config{}); !errors.Is(err, wasm.ErrLink) {
		t.Errorf("got %v, want ErrLink", err)
	}
}

// TestEnginesAgree is the engine-equivalence property: for random
// coefficient sets, a compiled polynomial-with-loop kernel must produce
// bit-identical results under the interpreter and every other engine.
func TestEnginesAgree(t *testing.T) {
	build := func() *wasmgen.Module {
		m := wasmgen.NewModule()
		m.Memory(1, 1)
		// f(a,b,n): for i in 0..n { acc = acc*a + b (i64) }; returns acc.
		f := m.Func(wasmgen.Sig(wasmgen.I64, wasmgen.I64, wasmgen.I32).Returns(wasmgen.I64),
			wasmgen.I32, wasmgen.I64)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(3).LocalGet(2).I32GeS().BrIf(1)
		f.LocalGet(4).LocalGet(0).I64Mul().LocalGet(1).I64Add().LocalSet(4)
		f.LocalGet(3).I32Const(1).I32Add().LocalSet(3)
		f.Br(0)
		f.End().End()
		f.LocalGet(4)
		f.End()
		m.Export("poly", f)
		return m
	}
	mod, err := wasm.Decode(build().Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var ins []*wasm.Instance // interpreter first
	for _, e := range engines {
		in, err := wasm.Instantiate(c, nil, wasm.Config{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		ins = append(ins, in)
	}

	check := func(a, b uint64, n uint8) bool {
		r1, err1 := ins[0].Invoke("poly", a, b, uint64(n))
		for _, in := range ins[1:] {
			r2, err2 := in.Invoke("poly", a, b, uint64(n))
			if (err1 == nil) != (err2 == nil) || (err1 == nil && r1[0] != r2[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
