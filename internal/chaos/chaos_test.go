package chaos

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"twine/internal/hostfs"
)

// TestZeroPlanNeverInjects: the fidelity rule's foundation — a zero plan
// (and a nil injector) never selects, so wired-but-disabled harness code
// is a strict no-op.
func TestZeroPlanNeverInjects(t *testing.T) {
	inj := New(Plan{})
	for i := 0; i < 1000; i++ {
		if err := inj.Op(); err != nil {
			t.Fatalf("zero plan injected at op %d: %v", i+1, err)
		}
	}
	if s := inj.Stats(); s.Faults != 0 || s.Stalls != 0 || s.Ops != 1000 {
		t.Errorf("stats = %+v, want 1000 ops, 0 faults, 0 stalls", s)
	}

	var nilInj *Injector
	if err := nilInj.Op(); err != nil {
		t.Errorf("nil injector injected: %v", err)
	}
	if s := nilInj.Stats(); s != (Stats{}) {
		t.Errorf("nil injector stats = %+v", s)
	}
}

// TestWindowSelection: At+Window fails exactly the ops in [At, At+W) —
// the recovery-path schedule (errors, then health again).
func TestWindowSelection(t *testing.T) {
	boom := errors.New("boom")
	inj := New(Plan{At: 5, Window: 3, Err: boom})
	for op := int64(1); op <= 12; op++ {
		err := inj.Op()
		want := op >= 5 && op < 8
		if (err != nil) != want {
			t.Errorf("op %d: err=%v, want fault=%v", op, err, want)
		}
	}
	if s := inj.Stats(); s.Faults != 3 {
		t.Errorf("Faults = %d, want 3", s.Faults)
	}

	// Window omitted: exactly one op fails.
	single := New(Plan{At: 4, Err: boom})
	var faults int
	for op := 0; op < 10; op++ {
		if single.Op() != nil {
			faults++
		}
	}
	if faults != 1 {
		t.Errorf("At-only plan faulted %d ops, want 1", faults)
	}
}

// TestEveryKDeterministicPhase: the stride schedule fails exactly one op
// per K, at a phase derived from the seed — same seed, same ops; a
// different seed (generally) moves the phase but keeps the rate.
func TestEveryKDeterministicPhase(t *testing.T) {
	boom := errors.New("boom")
	const k, n = 7, 70
	record := func(seed int64) []int64 {
		inj := New(Plan{Seed: seed, EveryK: k, Err: boom})
		var failed []int64
		for op := int64(1); op <= n; op++ {
			if inj.Op() != nil {
				failed = append(failed, op)
			}
		}
		return failed
	}
	a, b := record(42), record(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if len(a) != n/k {
		t.Errorf("seed 42 failed %d ops over %d, want %d", len(a), n, n/k)
	}
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] != k {
			t.Errorf("fault stride %d between ops %d and %d, want %d", a[i]-a[i-1], a[i-1], a[i], k)
		}
	}
}

// TestProbSeededDeterminism: the probabilistic schedule is a pure hash of
// (seed, op): replays are identical, and the realised rate is in the
// right ballpark.
func TestProbSeededDeterminism(t *testing.T) {
	boom := errors.New("boom")
	const n = 10000
	record := func(seed int64) map[int64]bool {
		inj := New(Plan{Seed: seed, Prob: 0.01, Err: boom})
		failed := make(map[int64]bool)
		for op := int64(1); op <= n; op++ {
			if inj.Op() != nil {
				failed[op] = true
			}
		}
		return failed
	}
	a, b := record(7), record(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for op := range a {
		if !b[op] {
			t.Fatalf("op %d faulted in one replay only", op)
		}
	}
	// 1% of 10k = 100 expected; allow generous slack (binomial sd ~10).
	if len(a) < 50 || len(a) > 200 {
		t.Errorf("realised fault rate %d/%d, want ~100", len(a), n)
	}
	// Selected() is the same pure function the injector consumed.
	inj := New(Plan{Seed: 7, Prob: 0.01, Err: boom})
	for op := int64(1); op <= n; op++ {
		if inj.Selected(op) != a[op] {
			t.Fatalf("Selected(%d) disagrees with the consumed decision", op)
		}
	}
}

// TestConcurrentOpsConserveFaults: under concurrent callers the set of
// faulted *ordinals* is fixed by the plan, so the total fault count is
// exactly the number of selected ordinals regardless of interleaving.
func TestConcurrentOpsConserveFaults(t *testing.T) {
	boom := errors.New("boom")
	const callers, perCaller, k = 8, 250, 5
	inj := New(Plan{Seed: 3, EveryK: k, Err: boom})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				_ = inj.Op()
			}
		}()
	}
	wg.Wait()
	total := int64(callers * perCaller)
	s := inj.Stats()
	if s.Ops != total {
		t.Errorf("Ops = %d, want %d", s.Ops, total)
	}
	if s.Faults != total/k {
		t.Errorf("Faults = %d, want %d", s.Faults, total/k)
	}
}

// TestStallOnlyPlan: a plan with Stall but no Err delays selected ops and
// returns nil — the descheduled-worker fault.
func TestStallOnlyPlan(t *testing.T) {
	inj := New(Plan{EveryK: 2, Stall: 1}) // 1ns: presence, not duration
	for op := 0; op < 10; op++ {
		if err := inj.Op(); err != nil {
			t.Fatalf("stall-only plan returned error: %v", err)
		}
	}
	if s := inj.Stats(); s.Stalls != 5 || s.Faults != 0 {
		t.Errorf("stats = %+v, want 5 stalls, 0 faults", s)
	}
}

// TestTransientClassification: Transient wraps are recognised, plain
// errors are not, and the wrapped cause stays visible to errors.Is.
func TestTransientClassification(t *testing.T) {
	cause := errors.New("host thread stalled")
	if !IsTransient(Transient(cause)) {
		t.Error("Transient(err) not classified transient")
	}
	if !IsTransient(Transient(nil)) {
		t.Error("Transient(nil) not classified transient")
	}
	if IsTransient(cause) {
		t.Error("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
	if !errors.Is(Transient(cause), cause) {
		t.Error("Transient lost the wrapped cause")
	}
}

// TestWrapFSInjects: the FS wrapper consults the plan on path and handle
// operations alike, and a replay with Reset sees the same faults.
func TestWrapFSInjects(t *testing.T) {
	boom := Transient(errors.New("disk glitch"))
	inj := New(Plan{At: 2, Err: boom})
	fs := WrapFS(hostfs.NewMemFS(), inj)

	f, err := fs.OpenFile("/a", hostfs.OWrite|hostfs.OCreate) // op 1: ok
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, boom) { // op 2: fault
		t.Errorf("WriteAt = %v, want injected fault", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil { // op 3: recovered
		t.Errorf("WriteAt after window = %v", err)
	}
	if err := f.Close(); err != nil { // pass-through, not an op
		t.Errorf("Close: %v", err)
	}
	if s := inj.Stats(); s.Ops != 3 || s.Faults != 1 {
		t.Errorf("stats = %+v, want 3 ops, 1 fault", s)
	}

	inj.Reset()
	if _, err := fs.Stat("/a"); err != nil { // op 1 again: ok
		t.Errorf("Stat after Reset: %v", err)
	}
	if _, err := fs.Stat("/a"); !errors.Is(err, boom) { // op 2 again: fault
		t.Errorf("replayed op 2 = %v, want injected fault", err)
	}

	// A window that never closes is a host that died after op 1: every
	// handle operation fails from then on.
	dead := WrapFS(hostfs.NewMemFS(), New(Plan{At: 2, Window: 1 << 40, Err: boom}))
	g, err := dead.OpenFile("/b", hostfs.ORead|hostfs.OWrite|hostfs.OCreate) // op 1: ok
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := g.WriteAt([]byte("x"), 0); !errors.Is(err, boom) {
		t.Errorf("WriteAt on a dead host = %v, want injected fault", err)
	}
	if _, err := g.ReadAt(make([]byte, 1), 0); !errors.Is(err, boom) {
		t.Errorf("ReadAt on a dead host = %v, want injected fault", err)
	}
	if err := g.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync on a dead host = %v, want injected fault", err)
	}
	if _, err := dead.Stat("/b"); !errors.Is(err, boom) {
		t.Errorf("Stat on a dead host = %v, want injected fault", err)
	}
}

// TestWrapFSTransparentWhenNil: a nil injector wrapper behaves exactly
// like the wrapped FS.
func TestWrapFSTransparentWhenNil(t *testing.T) {
	fs := WrapFS(hostfs.NewMemFS(), nil)
	f, err := fs.OpenFile("/x", hostfs.OWrite|hostfs.OCreate)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	info, err := fs.Stat("/x")
	if err != nil || info.Size != 4 {
		t.Fatalf("Stat = %+v, %v; want size 4", info, err)
	}
}
