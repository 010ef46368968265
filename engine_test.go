package twine_test

import (
	"testing"

	"twine"
	"twine/internal/core"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// fillModule exports run() -> i32, a 256-trip f64 fill: a loop every tier
// retires a different instruction count for (the superblock tier runs it
// as one idiom trace), which makes the count a fingerprint of the engine
// that executed it.
func fillModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	i := f.AddLocal(wasmgen.I32)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(256).I32GeS().BrIf(1)
	f.LocalGet(i).I32Const(8).I32Mul().I32Const(64).I32Add().F64Const(1.5).F64Store(0)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(i)
	f.End()
	m.Export("run", f)
	return m.Bytes()
}

// TestZeroValueEngineAgrees: the three front doors' zero configs —
// wasm.Config{}, core.Config{} and twine.Config{} — execute the same
// tier, it is wasm.Engine(0), and that is the superblock tier. The
// benchmark's native → wasm → core → twine ladder only closes if every
// rung runs the same engine with no option set.
func TestZeroValueEngineAgrees(t *testing.T) {
	if wasm.Engine(0) != wasm.EngineSuperblock || twine.EngineSuperblock != wasm.EngineSuperblock {
		t.Fatalf("zero-value engine is %v, want %v", wasm.Engine(0), wasm.EngineSuperblock)
	}
	bin := fillModule()
	mod, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	bare := func(cfg wasm.Config) int64 {
		in, err := wasm.Instantiate(c, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Invoke("run"); err != nil {
			t.Fatal(err)
		}
		return in.InsRetired()
	}
	enclave := func(rt *core.Runtime, err error) int64 {
		if err != nil {
			t.Fatal(err)
		}
		mod, err := rt.LoadModule(bin)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("run"); err != nil {
			t.Fatal(err)
		}
		return inst.In.InsRetired()
	}

	want := bare(wasm.Config{Engine: wasm.Engine(0)})
	for _, other := range []wasm.Engine{wasm.EngineInterp, wasm.EngineRegister, wasm.EngineAOT} {
		if got := bare(wasm.Config{Engine: other}); got == want {
			t.Fatalf("%v retires %d instructions like %v: the fill no longer tells engines apart", other, got, wasm.Engine(0))
		}
	}
	for name, got := range map[string]int64{
		"wasm.Config{}":  bare(wasm.Config{}),
		"core.Config{}":  enclave(core.NewRuntime(core.Config{})),
		"twine.Config{}": enclave(twine.NewRuntime(twine.Config{})),
	} {
		if got != want {
			t.Errorf("%s retired %d instructions, %v retires %d", name, got, wasm.Engine(0), want)
		}
	}
}
