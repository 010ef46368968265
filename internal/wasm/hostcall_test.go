package wasm

import (
	"testing"

	"twine/wasmgen"
)

// hostLoopModule builds a guest whose exported "run" calls the host
// function env.id (i64 -> i64) n times, threading the accumulator
// through it.
func hostLoopModule(t testing.TB, n int32) (*Compiled, *ImportObject) {
	t.Helper()
	m := wasmgen.NewModule()
	id := m.ImportFunc("env", "id", wasmgen.Sig(wasmgen.I64).Returns(wasmgen.I64))
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I64))
	i := f.AddLocal(wasmgen.I32)
	acc := f.AddLocal(wasmgen.I64)
	f.I32Const(n).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Eqz().BrIf(1)
	f.LocalGet(acc).Call(id).LocalSet(acc)
	f.LocalGet(i).I32Const(1).I32Sub().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)
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
	imp := NewImportObject()
	imp.AddFunc(HostFunc{
		Module: "env", Name: "id",
		Type: FuncType{Params: []ValueType{I64}, Results: []ValueType{I64}},
		Fn: func(in *Instance, a []uint64) ([]uint64, error) {
			return in.Ret1(a[0] + 1), nil
		},
	})
	return c, imp
}

// TestHostCallAllocs is the allocation guard for the host-call return
// path: with the per-instance result buffer (Instance.Ret1/RetBuf), a
// host call must not allocate. Each Invoke performs 1,000 host calls;
// the only tolerated allocations are Invoke's own result slice and
// incidental runtime noise — anything growing with the call count fails.
func TestHostCallAllocs(t *testing.T) {
	for _, eng := range []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock} {
		c, imp := hostLoopModule(t, 1000)
		in, err := Instantiate(c, imp, Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		// Warm the buffers.
		if out, err := in.Invoke("run"); err != nil || out[0] != 1000 {
			t.Fatalf("%v: out=%v err=%v", eng, out, err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := in.Invoke("run"); err != nil {
				t.Fatal(err)
			}
		})
		// 1,000 host calls per run: a per-call allocation would show as
		// >= 1000. Allow the handful of fixed per-Invoke allocations.
		if avg > 4 {
			t.Errorf("%v: %v allocs per 1000 host calls, want <= 4 (per-call allocation regressed)", eng, avg)
		}
	}
}

// BenchmarkHostCallAllocs tracks the per-call cost and allocation count
// of the guest->host return path (run with -benchmem).
func BenchmarkHostCallAllocs(b *testing.B) {
	c, imp := hostLoopModule(b, 1000)
	in, err := Instantiate(c, imp, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := in.Invoke("run"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := in.Invoke("run"); err != nil {
			b.Fatal(err)
		}
	}
}
