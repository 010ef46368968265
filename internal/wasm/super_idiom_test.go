package wasm

import (
	"bytes"
	"testing"

	"twine/wasmgen"
)

// TestSuperCopyTailIdiom pins idiom matching for loops whose induction
// increment was rewritten by the register tier's LVN: when the body
// already computes j+1 (for an A[i][j+1] load), the back-edge becomes
// "copy L, src" instead of the canonical "i32addimm L, L, 1". The
// matcher must recognise the copy tail — this is exactly the jacobi-2d
// stencil shape, and losing it silently demotes the hottest PolyBench
// stencil loop to the register interpreter. The test asserts the loop
// really is an idiom trace, that raw trips actually ran (dispatch count
// collapses), and that result and memory stay bit-identical across all
// four engines.
func TestSuperCopyTailIdiom(t *testing.T) {
	const n = 24
	const baseA, baseB = 64, 64 + n*n*8
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.F64))
	i := f.AddLocal(wasmgen.I32)
	j := f.AddLocal(wasmgen.I32)

	// The polybench DSL's address form: (row*n + col)*8 + base.
	addr2 := func(base int32, row func(), col func()) {
		row()
		f.I32Const(n)
		f.I32Mul()
		col()
		f.I32Add()
		f.I32Const(8)
		f.I32Mul()
		f.I32Const(base)
		f.I32Add()
	}
	getI := func() { f.LocalGet(i) }
	getJ := func() { f.LocalGet(j) }
	iMinus1 := func() { f.LocalGet(i); f.I32Const(1); f.I32Sub() }
	iPlus1 := func() { f.LocalGet(i); f.I32Const(1); f.I32Add() }
	jMinus1 := func() { f.LocalGet(j); f.I32Const(1); f.I32Sub() }
	jPlus1 := func() { f.LocalGet(j); f.I32Const(1); f.I32Add() }

	forLoop := func(v uint32, lo, hi int32, body func()) {
		f.I32Const(lo)
		f.LocalSet(v)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(v)
		f.I32Const(hi)
		f.I32GeS()
		f.BrIf(1)
		body()
		f.LocalGet(v)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(v)
		f.Br(0)
		f.End()
		f.End()
	}

	forLoop(i, 0, n, func() {
		forLoop(j, 0, n, func() {
			addr2(baseA, getI, getJ)
			f.LocalGet(i)
			f.LocalGet(j)
			f.I32Add()
			f.F64ConvertI32S()
			f.F64Store(0)
		})
	})
	// B[i][j] = 0.2*(A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j]).
	// The A[i][j+1] load makes LVN reuse its j+1 temp as the increment.
	forLoop(i, 1, n-1, func() {
		forLoop(j, 1, n-1, func() {
			addr2(baseB, getI, getJ)
			f.F64Const(0.2)
			addr2(baseA, getI, getJ)
			f.F64Load(0)
			addr2(baseA, getI, jMinus1)
			f.F64Load(0)
			f.F64Add()
			addr2(baseA, getI, jPlus1)
			f.F64Load(0)
			f.F64Add()
			addr2(baseA, iPlus1, getJ)
			f.F64Load(0)
			f.F64Add()
			addr2(baseA, iMinus1, getJ)
			f.F64Load(0)
			f.F64Add()
			f.F64Mul()
			f.F64Store(0)
		})
	})
	f.I32Const(baseB + 8*(n+5))
	f.F64Load(0)
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

	st := c.SuperStats(false)
	if st.Idioms < 1 {
		t.Fatalf("stencil loop did not match an idiom (copy tail lost?): %+v", st)
	}

	engines := []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock}
	var res [4]uint64
	var mems [4][]byte
	var retired [4]int64
	for ei, e := range engines {
		in, err := Instantiate(c, nil, Config{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		out, err := in.Invoke("run")
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		res[ei] = out[0]
		mems[ei] = append([]byte(nil), in.mem.data...)
		retired[ei] = in.InsRetired()
	}
	for ei := 1; ei < 4; ei++ {
		if res[ei] != res[0] {
			t.Errorf("%v result %#x, want %#x", engines[ei], res[ei], res[0])
		}
		if !bytes.Equal(mems[ei], mems[0]) {
			t.Errorf("%v memory diverged from interp", engines[ei])
		}
	}
	// The idiom trace charges one dispatch per iteration instead of the
	// ~20-instruction stencil body; the init loop stays with runRegBody, so
	// require a >2x overall drop rather than a per-loop ratio.
	if retired[3]*2 >= retired[2] {
		t.Errorf("superblock retired %d vs register %d; idiom trace did not engage", retired[3], retired[2])
	}
}
