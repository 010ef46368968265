package wasm

import (
	"bytes"
	"testing"

	"twine/wasmgen"
)

// TestSuperMidLoopSnapshotFidelity pins mid-invocation state fidelity:
// an outer loop yields to the host between trips of an inner loop the
// superblock tier compiles to a trace. At every yield the host captures
// a Snapshot; memory and globals must match the interpreter's snapshot
// at the same yield bit-for-bit — a trace that deferred or reordered its
// stores past the host-call boundary would diverge here. The test also
// asserts the superblock tier actually traced the kernel (this is not a
// vacuous comparison of four interpreters) and exercises
// ResetFromSnapshot: a super-tier instance reset to a mid-run snapshot
// must finish exactly like an interpreter instance reset the same way.
func TestSuperMidLoopSnapshotFidelity(t *testing.T) {
	const n = 64
	const baseA, baseB, baseC = 64, 64 + n*8, 64 + 2*n*8
	const yields = 4

	m := wasmgen.NewModule()
	m.Memory(1, 1)
	g := m.Global(wasmgen.I64, true, 0)
	yield := m.ImportFunc("env", "yield", wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f := m.Func(wasmgen.Sig().Returns(wasmgen.F64))
	k := f.AddLocal(wasmgen.I32)
	i := f.AddLocal(wasmgen.I32)
	forLoop := func(v uint32, hi int32, body func()) {
		f.I32Const(0).LocalSet(v)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(v).I32Const(hi).I32GeS().BrIf(1)
		body()
		f.LocalGet(v).I32Const(1).I32Add().LocalSet(v)
		f.Br(0)
		f.End()
		f.End()
	}
	addr := func(base int32, v uint32) {
		f.LocalGet(v).I32Const(8).I32Mul().I32Const(base).I32Add()
	}
	// Seed A and B; C starts zero.
	forLoop(i, n, func() {
		addr(baseA, i)
		f.LocalGet(i).F64ConvertI32S().F64Const(1).F64Add()
		f.F64Store(0)
		addr(baseB, i)
		f.LocalGet(i).F64ConvertI32S().F64Const(0.5).F64Mul()
		f.F64Store(0)
	})
	forLoop(k, yields, func() {
		f.LocalGet(k).Call(yield).Drop()
		// Inner kernel: C[i] += (1.5 * A[i]) * B[i] — the fma idiom.
		forLoop(i, n, func() {
			addr(baseC, i)
			addr(baseC, i)
			f.F64Load(0)
			f.F64Const(1.5)
			addr(baseA, i)
			f.F64Load(0)
			f.F64Mul()
			addr(baseB, i)
			f.F64Load(0)
			f.F64Mul()
			f.F64Add()
			f.F64Store(0)
		})
		f.GlobalGet(g).LocalGet(k).I64ExtendI32S().I64Add().GlobalSet(g)
	})
	f.I32Const(baseC + 8*37).F64Load(0)
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

	type runOut struct {
		snaps   []*Snapshot
		res     uint64
		retired int64
	}
	run := func(eng Engine) runOut {
		var out runOut
		imp := NewImportObject()
		imp.AddFunc(HostFunc{
			Module: "env", Name: "yield",
			Type: FuncType{Params: []ValueType{I32}, Results: []ValueType{I32}},
			Fn: func(in *Instance, args []uint64) ([]uint64, error) {
				out.snaps = append(out.snaps, in.Snapshot())
				return in.Ret1(args[0]), nil
			},
		})
		in, err := Instantiate(c, imp, Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		res, err := in.Invoke("run")
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		out.res = res[0]
		out.retired = in.InsRetired()
		return out
	}

	base := run(EngineInterp)
	if len(base.snaps) != yields {
		t.Fatalf("interp yielded %d times, want %d", len(base.snaps), yields)
	}
	outs := map[Engine]runOut{}
	for _, eng := range []Engine{EngineAOT, EngineRegister, EngineSuperblock} {
		got := run(eng)
		outs[eng] = got
		if got.res != base.res {
			t.Errorf("%v result %#x, want %#x", eng, got.res, base.res)
		}
		if len(got.snaps) != yields {
			t.Fatalf("%v yielded %d times, want %d", eng, len(got.snaps), yields)
		}
		for j := range got.snaps {
			if !bytes.Equal(got.snaps[j].mem, base.snaps[j].mem) {
				t.Errorf("%v: memory diverged from interp at yield %d", eng, j)
			}
			for gi := range got.snaps[j].globals {
				if got.snaps[j].globals[gi] != base.snaps[j].globals[gi] {
					t.Errorf("%v: global %d diverged at yield %d: %#x vs %#x",
						eng, gi, j, got.snaps[j].globals[gi], base.snaps[j].globals[gi])
				}
			}
		}
	}

	// The comparison must not be vacuous: the kernel has to have been
	// traced, and tracing has to have paid off in dispatches retired.
	st := c.SuperStats(false)
	if st.Idioms == 0 {
		t.Fatalf("superblock translated no traces: %+v", st)
	}
	if sr := outs[EngineSuperblock].retired; sr*2 >= base.retired {
		t.Errorf("superblock retired %d dispatches vs interp %d; expected a >2x drop", sr, base.retired)
	}

	// Repair path: reset a super instance to the interpreter's yield-2
	// snapshot and finish; an interpreter instance reset the same way
	// must land on the identical final state.
	finish := func(eng Engine, snap *Snapshot) (uint64, []byte) {
		imp := NewImportObject()
		imp.AddFunc(HostFunc{
			Module: "env", Name: "yield",
			Type: FuncType{Params: []ValueType{I32}, Results: []ValueType{I32}},
			Fn: func(in *Instance, args []uint64) ([]uint64, error) {
				return in.Ret1(args[0]), nil
			},
		})
		in, err := Instantiate(c, imp, Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if err := in.ResetFromSnapshot(snap); err != nil {
			t.Fatalf("%v: ResetFromSnapshot: %v", eng, err)
		}
		res, err := in.Invoke("run")
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		return res[0], append([]byte(nil), in.mem.data...)
	}
	wantRes, wantMem := finish(EngineInterp, base.snaps[2])
	gotRes, gotMem := finish(EngineSuperblock, base.snaps[2])
	if gotRes != wantRes || !bytes.Equal(gotMem, wantMem) {
		t.Errorf("post-reset divergence: res %#x vs %#x", gotRes, wantRes)
	}
}
