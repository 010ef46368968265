package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"twine/internal/wasm"
	"twine/wasmgen"
)

// PR 9 swap-tier coverage: suspend/resume fidelity against a
// never-suspended control, resume from the golden snapshot, the
// MaxResident bound and its conservation law, victim ordering, and the
// heap-pressure eviction retry.

// accumModule builds the swap tests' guest: run(x) accumulates x into two
// cells on different 4 KiB chunks and returns their sum; run(13) traps
// after no mutation. A worker that resumes with anything but its golden
// state shows it in the sum.
func accumModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(2, 2)
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.Block(wasmgen.BlockVoid)
	f.LocalGet(0).I32Const(13).I32Ne().BrIf(0)
	f.Unreachable()
	f.End()
	// mem[8] += x on the first wasm page, mem[70000] += x on the second.
	f.I32Const(8).I32Const(8).I32Load(0).LocalGet(0).I32Add().I32Store(0)
	f.I32Const(70000).I32Const(70000).I32Load(0).LocalGet(0).I32Add().I32Store(0)
	f.I32Const(8).I32Load(0).I32Const(70000).I32Load(0).I32Add()
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// suspendAll suspends idle resident workers, coldest first, until none
// is left, and returns how many it suspended.
func suspendAll(r *Registry) int {
	n := 0
	for r.swap.evictOne(context.Background()) {
		n++
	}
	return n
}

type fidelityRun struct {
	outs     []uint64
	last     [4]int64 // ECalls/OCalls/faults/evictions around the final submit
	total    [4]int64 // same, around the whole run
	trap     *wasm.Trap
	suspends int64
	resumes  int64
}

// driveFidelity runs the same schedule with or without a suspend/resume
// cycle in the middle, on a fresh single-TCS runtime with switchless off
// so enclave transitions count exactly.
func driveFidelity(t *testing.T, withSwap bool) fidelityRun {
	t.Helper()
	cfg := testConfig(func(c *Config) {
		c.SGX.TCSNum = 1
		c.Switchless = SwitchlessOff
		// Roomy EPC: fidelity compares eviction counters, so the workload
		// itself must not sweep — any divergence is then the swap tier's.
		// The heap must fit under usable EPC with headroom (heap pages are
		// resident from enclave init).
		c.SGX.HeapSize = 16 << 20
		c.SGX.EPCSize = 64 << 20
		c.SGX.EPCUsable = 48 << 20
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Enclave.Destroy()
	var rcfg RegistryConfig
	if withSwap {
		rcfg.MaxResident = 1
	}
	reg := rt.NewRegistry(rcfg)
	defer reg.Close()
	ten, err := reg.Register("acc", accumModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	grab := func() [4]int64 {
		s := rt.Enclave.Stats()
		return [4]int64{s.ECalls, s.OCalls, s.PageFaults, s.Evictions}
	}
	delta := func(a, b [4]int64) (d [4]int64) {
		for i := range d {
			d[i] = b[i] - a[i]
		}
		return
	}
	var r fidelityRun
	submit := func(x uint64) {
		out, serr := ten.Submit(x)
		if serr != nil {
			t.Fatalf("Submit(%d): %v", x, serr)
		}
		r.outs = append(r.outs, out[0])
	}

	base := grab()
	submit(1)
	submit(2)
	submit(3)
	if withSwap {
		if n := suspendAll(reg); n != 1 {
			t.Fatalf("suspendAll = %d, want 1", n)
		}
	}
	submit(4) // on the swap run this request transparently resumes
	pre := grab()
	submit(5) // post-resume steady state: must cost exactly what control costs
	r.last = delta(pre, grab())

	if _, terr := ten.Submit(13); !errors.As(terr, &r.trap) {
		t.Fatalf("Submit(13) = %v, want *wasm.Trap", terr)
	}
	r.total = delta(base, grab())
	s := ten.Stats()
	r.suspends, r.resumes = s.Pool.Suspends, s.Pool.Resumes
	return r
}

// TestSuspendResumeFidelity is the PR 9 acceptance guard: a worker that
// was suspended and resumed must be bit-identical to one that never left
// the EPC — same results, same trap kind, and, once resumed, the same
// enclave transition counters per request. Over the whole run the swap
// side may differ by exactly its own ECALLs (one twine_suspend, one
// twine_resume) and the faults of paging the golden snapshot back in —
// nothing else.
func TestSuspendResumeFidelity(t *testing.T) {
	ctrl := driveFidelity(t, false)
	swap := driveFidelity(t, true)

	if len(ctrl.outs) != len(swap.outs) {
		t.Fatalf("schedule lengths diverged: %d vs %d", len(ctrl.outs), len(swap.outs))
	}
	for i := range ctrl.outs {
		if ctrl.outs[i] != swap.outs[i] {
			t.Errorf("request %d: control %d, suspended/resumed %d", i, ctrl.outs[i], swap.outs[i])
		}
	}
	if swap.suspends != 1 || swap.resumes != 1 {
		t.Fatalf("swap run did %d suspends / %d resumes, want 1/1", swap.suspends, swap.resumes)
	}
	if ctrl.suspends != 0 || ctrl.resumes != 0 {
		t.Fatalf("control run touched the swap tier: %d/%d", ctrl.suspends, ctrl.resumes)
	}
	// Steady state after the resume: identical ECALL/OCALL/fault/eviction
	// cost per request.
	if ctrl.last != swap.last {
		t.Errorf("post-resume request cost diverged: control %v, swap %v (ECalls, OCalls, faults, evictions)", ctrl.last, swap.last)
	}
	// Whole run: the swap side's ECALLs are control plus exactly its own.
	if want := ctrl.total[0] + swap.suspends + swap.resumes; swap.total[0] != want {
		t.Errorf("swap run ECalls = %d, want %d (control %d + suspend/resume)", swap.total[0], want, ctrl.total[0])
	}
	if swap.total[1] != ctrl.total[1] {
		t.Errorf("OCalls diverged: control %d, swap %d", ctrl.total[1], swap.total[1])
	}
	if swap.total[3] != ctrl.total[3] {
		t.Errorf("evictions diverged: control %d, swap %d", ctrl.total[3], swap.total[3])
	}
	if ctrl.trap.Kind != swap.trap.Kind {
		t.Errorf("trap kind diverged: control %v, swap %v", ctrl.trap.Kind, swap.trap.Kind)
	}
}

// TestResumedWorkerIsGolden pins the rule of the swap tier: an idle
// worker is its tenant's golden snapshot, so a suspend keeps nothing and
// a resume instantiates that snapshot. A byte written into the idle
// worker's memory — what a reset that failed would leave — does not
// survive the cycle, nothing is sealed, and the cycle costs one ECALL per
// suspend and per resume and no OCALL.
func TestResumedWorkerIsGolden(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{MaxResident: 1})
	defer reg.Close()

	a, err := reg.Register("a", accumModule(), TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := a.Submit(1); err != nil || out[0] != 2 {
		t.Fatalf("first submit = %v, %v", out, err)
	}
	w := a.Pool().takeWorker(t)
	if err := w.In.Memory().WriteByteAt(8, 5); err != nil {
		t.Fatal(err)
	}
	a.Pool().release(w)

	before := rt.Enclave.Stats()
	// Under a bound of one, registering and serving b pushes a's worker
	// out (whichever of the two workers registration picks); serving a
	// then resumes it. Besides suspends and resumes that is one
	// instantiation ECALL and two serve ECALLs.
	b, err := reg.Register("b", accumModule(), TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(1); err != nil {
		t.Fatal(err)
	}
	out, err := a.Submit(1)
	if err != nil {
		t.Fatalf("resuming submit: %v", err)
	}
	after := rt.Enclave.Stats()

	fresh, err := wasm.InstantiateFromSnapshot(a.Module().Compiled, rt.Imports, a.Pool().snap, wasm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := fresh.Memory().Bytes(0, uint32(fresh.Memory().Len()))
	if err != nil {
		t.Fatal(err)
	}
	w = a.Pool().takeWorker(t)
	mem, err := w.In.Memory().Bytes(0, uint32(w.In.Memory().Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, golden) {
		t.Error("resumed worker's memory differs from a fresh snapshot instantiation")
	}
	a.Pool().release(w)
	want, err := fresh.Invoke("run", 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != want[0] {
		t.Errorf("resumed worker answered %d, a fresh snapshot instance %d", out[0], want[0])
	}

	s := reg.Stats()
	if s.SealBytes != 0 {
		t.Errorf("SealBytes = %d, want 0: a suspend writes nothing outside the enclave", s.SealBytes)
	}
	if as := a.Stats().Pool; as.Suspends != 1 || as.Resumes != 1 {
		t.Fatalf("a: Suspends/Resumes = %d/%d, want 1/1", as.Suspends, as.Resumes)
	}
	if got, want := after.ECalls-before.ECalls, 3+s.Suspends+s.Resumes; got != want {
		t.Errorf("cycle took %d ECALLs, want %d (instantiate + two serves + one per suspend and resume)", got, want)
	}
	if got := after.OCalls - before.OCalls; got != 0 {
		t.Errorf("cycle took %d OCALLs, want 0", got)
	}
}

// TestSwapBoundConservation: with four one-worker tenants under
// MaxResident 2, two are always suspended at rest, submits to suspended
// tenants transparently resume (displacing others) and answer what a
// fresh worker answers, and the counters obey Suspends == Resumes +
// Suspended.
func TestSwapBoundConservation(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{MaxResident: 2})
	defer reg.Close()

	const tenants = 4
	for i := 0; i < tenants; i++ {
		if _, err := reg.Register(fmt.Sprintf("t%d", i), accumModule(), TenantConfig{}); err != nil {
			t.Fatalf("register t%d: %v", i, err)
		}
	}
	if s := reg.Stats(); s.Suspended != tenants-2 {
		t.Fatalf("after registering %d tenants under bound 2: %d suspended, want %d", tenants, s.Suspended, tenants-2)
	}

	for round := 1; round <= 3; round++ {
		for i := 0; i < tenants; i++ {
			out, err := reg.Submit(fmt.Sprintf("t%d", i), 1)
			if err != nil {
				t.Fatalf("round %d t%d: %v", round, i, err)
			}
			if out[0] != 2 {
				t.Errorf("round %d t%d = %d, want 2", round, i, out[0])
			}
		}
	}

	s := reg.Stats()
	if s.Suspends == 0 || s.Resumes == 0 {
		t.Fatalf("round-robin under pressure did not exercise the swap tier: %+v", s)
	}
	if s.Suspends != s.Resumes+s.Suspended {
		t.Errorf("conservation broken: Suspends %d != Resumes %d + Suspended %d", s.Suspends, s.Resumes, s.Suspended)
	}
	if s.Suspended != tenants-2 {
		t.Errorf("at rest %d suspended, want %d (bound not enforced)", s.Suspended, tenants-2)
	}
	for name, ts := range s.PerTenant {
		if ts.ResumeLatency.Count != ts.Pool.Resumes {
			t.Errorf("%s: resume histogram saw %d resumes, counters saw %d", name, ts.ResumeLatency.Count, ts.Pool.Resumes)
		}
	}
}

// TestVictimOrdering pins the working-set weighting: fewest referenced
// pages first (out of the clock's working set), then most resident pages
// (biggest reclaim), then longest idle (LRU tiebreak).
func TestVictimOrdering(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cold := swapVictim{referenced: 0, resident: 8, idleSince: t0}
	coldSmall := swapVictim{referenced: 0, resident: 2, idleSince: t0}
	warm := swapVictim{referenced: 4, resident: 8, idleSince: t0.Add(-time.Hour)}
	older := swapVictim{referenced: 0, resident: 8, idleSince: t0.Add(-time.Minute)}

	if !victimLess(cold, warm) || victimLess(warm, cold) {
		t.Error("swept (unreferenced) worker must be a better victim than a working-set one, whatever the idle age")
	}
	if !victimLess(cold, coldSmall) || victimLess(coldSmall, cold) {
		t.Error("among equally cold workers the larger resident footprint must go first")
	}
	if !victimLess(older, cold) || victimLess(cold, older) {
		t.Error("with equal working sets the longer-idle worker must go first")
	}
}

// TestSwapResumeEvictsUnderHeapPressure: when a resume cannot allocate
// its arena (enclave heap exhausted — physics, not the MaxResident
// policy), resumeWorker evicts one victim per retry until the arena
// fits, instead of failing the request.
func TestSwapResumeEvictsUnderHeapPressure(t *testing.T) {
	cfg := testConfig(func(c *Config) {
		c.SGX.HeapSize = 2 << 20
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Enclave.Destroy()
	// A high bound: the only pressure in this test is the heap itself.
	reg := rt.NewRegistry(RegistryConfig{MaxResident: 100})
	defer reg.Close()
	a, err := reg.Register("a", accumModule(), TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register("b", accumModule(), TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Exhaust the heap tail while both arenas are live (the allocator is
	// exact-fit with no coalescing, so later frees make same-sized holes).
	alloc := rt.Enclave.Allocator()
	for _, chunk := range []int64{1 << 20, 64 << 10, 4 << 10, 8} {
		for {
			if _, err := alloc.Alloc(chunk); err != nil {
				break
			}
		}
	}
	// Suspend both workers: the only free heap is now their two arena
	// holes. Consume one, leaving room for exactly one resumed arena.
	if n := suspendAll(reg); n != 2 {
		t.Fatalf("suspendAll = %d, want 2", n)
	}
	if _, err := alloc.Alloc(64); err != nil {
		t.Fatalf("consuming an arena hole: %v", err)
	}

	// Tenant a resumes into the last hole; tenant b's resume then finds
	// no heap and must displace a to proceed.
	if out, err := a.Submit(1); err != nil || out[0] != 2 {
		t.Fatalf("a.Submit = %v, %v", out, err)
	}
	out, err := b.Submit(1)
	if err != nil {
		t.Fatalf("resume under heap exhaustion: %v", err)
	}
	if out[0] != 2 {
		t.Errorf("b.Submit = %d, want 2", out[0])
	}
	if s := a.Stats().Pool; s.Suspends != 2 || s.Suspended != 1 {
		t.Errorf("heap pressure did not displace the idle worker: %+v", s)
	}
	if s := reg.Stats(); s.Suspends != s.Resumes+s.Suspended {
		t.Errorf("conservation broken: %+v", s)
	}
}
