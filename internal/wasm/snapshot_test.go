package wasm_test

import (
	"sync"
	"testing"

	"twine/internal/wasm"
	"twine/wasmgen"
)

// statefulModule builds a module with memory-resident state: a data
// segment seeds cell 0, a global counts calls, and run(x) returns
// mem[0] + global + x while bumping both.
func statefulModule() *wasmgen.Module {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	m.Data(0, []byte{7, 0, 0, 0}) // mem[0] = 7
	g := m.Global(wasmgen.I32, true, 100)

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	// result = mem[0] + global + x
	f.I32Const(0).I32Load(0)
	f.GlobalGet(g).I32Add()
	f.LocalGet(0).I32Add()
	// mem[0]++
	f.I32Const(0).I32Const(0).I32Load(0).I32Const(1).I32Add().I32Store(0)
	// global++
	f.GlobalGet(g).I32Const(1).I32Add().GlobalSet(g)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m
}

func compile(t *testing.T, m *wasmgen.Module) *wasm.Compiled {
	t.Helper()
	mod, err := wasm.Decode(m.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// TestSnapshotInstantiateEquivalence: an instance stamped from a snapshot
// must behave exactly like the instance it was taken from — same memory,
// globals and table — and diverge independently afterwards.
func TestSnapshotInstantiateEquivalence(t *testing.T) {
	eachEngine(t, func(t *testing.T, e wasm.Engine) {
		c := compile(t, statefulModule())
		orig, err := wasm.Instantiate(c, nil, wasm.Config{Engine: e})
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		// Advance the original's state, then snapshot mid-life.
		if _, err := orig.Invoke("run", 0); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		snap := orig.Snapshot()

		copyIn, err := wasm.InstantiateFromSnapshot(c, nil, snap, wasm.Config{Engine: e})
		if err != nil {
			t.Fatalf("InstantiateFromSnapshot: %v", err)
		}

		// Both must now compute identical results from identical state...
		a, err := orig.Invoke("run", 5)
		if err != nil {
			t.Fatalf("orig run: %v", err)
		}
		b, err := copyIn.Invoke("run", 5)
		if err != nil {
			t.Fatalf("copy run: %v", err)
		}
		if a[0] != b[0] {
			t.Fatalf("snapshot copy diverged: orig %d, copy %d", a[0], b[0])
		}
		// ...and their state must be independent: run the copy twice more,
		// the original is unaffected.
		if _, err := copyIn.Invoke("run", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := copyIn.Invoke("run", 0); err != nil {
			t.Fatal(err)
		}
		a2, _ := orig.Invoke("run", 5)
		b2, _ := copyIn.Invoke("run", 5)
		if a2[0] == b2[0] {
			t.Fatal("instances share state; snapshot must deep-copy")
		}
	})
}

// TestSnapshotModuleMismatch: a snapshot only fits instances of the
// module it was taken from.
func TestSnapshotModuleMismatch(t *testing.T) {
	c1 := compile(t, statefulModule())
	c2 := compile(t, statefulModule()) // same shape, different Module value
	in, err := wasm.Instantiate(c1, nil, wasm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasm.InstantiateFromSnapshot(c2, nil, in.Snapshot(), wasm.Config{}); err == nil {
		t.Fatal("cross-module snapshot instantiation succeeded; want error")
	}
}

// TestConcurrentInstancesSharedCompiled: many instances of one Compiled
// (racing to translate, then sharing, the zero-value engine's code) must
// run concurrently and compute what a sequential instance computes — the
// immutable/mutable module split.
func TestConcurrentInstancesSharedCompiled(t *testing.T) {
	c := compile(t, statefulModule())

	// Sequential reference: fresh instance, three calls, on the
	// interpreter so that the workers find nothing translated yet.
	ref, err := wasm.Instantiate(c, nil, wasm.Config{Engine: wasm.EngineInterp})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := 0; i < 3; i++ {
		out, err := ref.Invoke("run", uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out[0])
	}

	const workers = 8
	var wg sync.WaitGroup
	results := make([][]uint64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, err := wasm.Instantiate(c, nil, wasm.Config{})
			if err != nil {
				errs[w] = err
				return
			}
			for i := 0; i < 3; i++ {
				out, err := in.Invoke("run", uint64(i))
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], out[0])
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range want {
			if results[w][i] != want[i] {
				t.Errorf("worker %d call %d = %d, want %d", w, i, results[w][i], want[i])
			}
		}
	}
}
