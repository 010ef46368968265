package wasm

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"twine/wasmgen"
)

// linear_test.go — the contract of a linear memory's reservation: its
// bytes live outside the Go heap where the build maps them, a grow never
// moves them, a reset leaves nothing behind that a later grow could
// expose, and the reservation outlives every host view taken while the
// memory is reachable.

var allEngines = []Engine{EngineInterp, EngineAOT, EngineRegister, EngineSuperblock}

func compileModule(t testing.TB, wasm []byte) *Compiled {
	t.Helper()
	mod, err := Decode(wasm)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// growModule has memory (1, 4) and run(x): grow by one page, store x at
// 65536 (the grown page's first word) if x != 0, return load(65536).
func growModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 4)
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.I32Const(1).MemoryGrow().Drop()
	f.LocalGet(0).If(wasmgen.BlockVoid)
	f.I32Const(65536).LocalGet(0).I32Store(0)
	f.End()
	f.I32Const(65536).I32Load(0)
	f.End()
	m.Export("run", f)
	return m.Bytes()
}

// TestGrowAfterResetReadsZero: a page a request grew and wrote must read
// zero when the next request, on the reset worker, grows it again — as
// it does on a fresh instance of the same snapshot.
func TestGrowAfterResetReadsZero(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			c := compileModule(t, growModule())
			template, err := Instantiate(c, nil, Config{Engine: e})
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}
			snap := template.Snapshot()
			warm, err := InstantiateFromSnapshot(c, nil, snap, Config{Engine: e})
			if err != nil {
				t.Fatalf("InstantiateFromSnapshot: %v", err)
			}
			if out, err := warm.Invoke("run", 0xdead); err != nil || out[0] != 0xdead {
				t.Fatalf("run(0xdead) = %v, %v; want 0xdead", out, err)
			}
			if err := warm.ResetFromSnapshot(snap); err != nil {
				t.Fatalf("ResetFromSnapshot: %v", err)
			}
			fresh, err := InstantiateFromSnapshot(c, nil, snap, Config{Engine: e})
			if err != nil {
				t.Fatalf("InstantiateFromSnapshot: %v", err)
			}
			if d := diffInstances(warm, fresh); d != "" {
				t.Fatalf("reset instance differs from a fresh one: %s", d)
			}
			for name, in := range map[string]*Instance{"reset": warm, "fresh": fresh} {
				if out, err := in.Invoke("run", 0); err != nil || out[0] != 0 {
					t.Errorf("%s: run(0) after a grow = %v, %v; want 0", name, out, err)
				}
			}
		})
	}
}

// TestGrowKeepsHostViews: a view the host took before memory.grow still
// aliases guest memory after it, because the bytes never move.
func TestGrowKeepsHostViews(t *testing.T) {
	m, err := NewMemory(Limits{Min: 1, Max: 4, HasMax: true}, 0)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	view, err := m.Bytes(0, 4)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if got := m.Grow(3); got != 1 {
		t.Fatalf("Grow(3) = %d, want 1", got)
	}
	copy(view, "abcd")
	if s, err := m.ReadString(0, 4); err != nil || s != "abcd" {
		t.Fatalf("after grow, guest reads %q, %v; want the host's write", s, err)
	}
	if got := m.Grow(1); got != -1 {
		t.Fatalf("Grow past the limit = %d, want -1", got)
	}
}

// TestLinearMemoryOffHeap: a 128-page memory, every page written, adds
// (almost) nothing to the Go heap where the build maps linear memory.
func TestLinearMemoryOffHeap(t *testing.T) {
	if !linearOffHeap {
		t.Skip("linear memory is on the Go heap on this build (race detector or no anonymous mappings)")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewMemory(Limits{Min: 128, Max: 128, HasMax: true}, 0)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	for off := uint32(0); off < 128*PageSize; off += 4096 {
		if err := m.WriteU32(off, off+1); err != nil {
			t.Fatalf("WriteU32: %v", err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Fatalf("a written 128-page memory grew the Go heap by %d bytes, want < 256 KiB", grew)
	}
}

// TestHostViewSurvivesGC: a host function takes a view, collects twice
// while only the stack references the instance, and then writes through
// the view and through a fresh Bytes. The guest must read both writes.
// Run it with -count=20: a reservation released too early faults here.
func TestHostViewSurvivesGC(t *testing.T) {
	m := wasmgen.NewModule()
	gc := m.ImportFunc("env", "gc", wasmgen.Sig())
	m.Memory(2, 2)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	f.Call(gc)
	f.I32Const(64).I32Load(0).I32Const(65536 + 64).I32Load(0).I32Add()
	f.End()
	m.Export("run", f)
	c := compileModule(t, m.Bytes())

	imp := NewImportObject()
	imp.AddFunc(HostFunc{
		Module: "env", Name: "gc", Type: FuncType{},
		Fn: func(in *Instance, _ []uint64) ([]uint64, error) {
			mem := in.Memory()
			view, err := mem.Bytes(64, 4)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			runtime.GC()
			view[0] = 40
			return nil, mem.WriteU32(65536+64, 2)
		},
	})
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			for i := 0; i < 3; i++ {
				// The instance is built and run in one expression: nothing
				// but the call stack references it.
				out, err := mustInstantiate(t, c, imp, e).Invoke("run")
				if err != nil || out[0] != 42 {
					t.Fatalf("run() = %v, %v; want 42", out, err)
				}
			}
		})
	}
}

func mustInstantiate(t *testing.T, c *Compiled, imp *ImportObject, e Engine) *Instance {
	t.Helper()
	in, err := Instantiate(c, imp, Config{Engine: e})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return in
}

// TestInstanceChurnReleasesReservations: 20 000 instances of a one-page
// guest, each writing its page and then dropped, leave resident memory
// and the mapping count bounded: collected memories are unmapped.
func TestInstanceChurnReleasesReservations(t *testing.T) {
	if !linearOffHeap {
		t.Skip("linear memory is on the Go heap on this build (race detector or no anonymous mappings)")
	}
	if testing.Short() {
		t.Skip("20 000 instantiations")
	}
	if _, err := os.Stat("/proc/self/statm"); err != nil {
		t.Skip("no /proc/self/statm")
	}
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	f.I32Const(4096).I32Const(7).I32Store(0)
	f.I32Const(4096).I32Load(0)
	f.End()
	m.Export("run", f)
	c := compileModule(t, m.Bytes())

	churn := func(n int) {
		for i := 0; i < n; i++ {
			if out, err := mustInstantiate(t, c, nil, EngineSuperblock).Invoke("run"); err != nil || out[0] != 7 {
				t.Fatalf("run() = %v, %v; want 7", out, err)
			}
		}
	}
	churn(1000) // warm the heap and the allocator
	runtime.GC()
	rss0, maps0 := residentBytes(t), mappingCount(t)
	churn(20000)
	runtime.GC()
	rss1, maps1 := residentBytes(t), mappingCount(t)
	t.Logf("resident %d -> %d KiB, mappings %d -> %d", rss0>>10, rss1>>10, maps0, maps1)
	// 20 000 leaked memories would hold 20 000 written 4 KiB pages (78 MiB)
	// and up to 20 000 mappings.
	if grew := rss1 - rss0; grew > 24<<20 {
		t.Errorf("resident memory grew %d KiB over 20 000 dropped instances, want < 24 MiB", grew>>10)
	}
	if grew := maps1 - maps0; grew > 500 {
		t.Errorf("mapping count grew by %d over 20 000 dropped instances, want <= 500", grew)
	}
}

// residentBytes reads this process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatalf("statm: %v", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		t.Fatalf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatalf("statm: %v", err)
	}
	return pages * int64(os.Getpagesize())
}

// mappingCount counts the lines of /proc/self/maps.
func mappingCount(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("maps: %v", err)
	}
	n := 0
	for sc := bufio.NewScanner(bytes.NewReader(b)); sc.Scan(); {
		n++
	}
	return n
}
