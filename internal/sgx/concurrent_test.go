package sgx

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newConcEnclave(t *testing.T, tcs int) *Enclave {
	t.Helper()
	cfg := TestConfig()
	cfg.TCSNum = tcs
	p := NewPlatform("conc-test")
	e, err := p.NewEnclave(cfg, []byte("conc"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	return e
}

// TestConcurrentECalls drives many goroutines through a small TCS pool:
// every call must complete, the ECALL counter must be exact, and observed
// occupancy must never exceed the pool size.
func TestConcurrentECalls(t *testing.T) {
	const tcs, callers, perCaller = 4, 16, 8
	e := newConcEnclave(t, tcs)
	defer e.Destroy()

	var cur, peak int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				err := e.ECall("work", func() error {
					n := atomic.AddInt64(&cur, 1)
					for {
						p := atomic.LoadInt64(&peak)
						if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
							break
						}
					}
					// Touch some enclave memory so the paging path runs
					// under contention too.
					if err := e.Memory().Touch(0, 8*PageSize); err != nil {
						return err
					}
					atomic.AddInt64(&cur, -1)
					return nil
				})
				if err != nil {
					t.Errorf("ECall: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s := e.Stats()
	if want := int64(callers * perCaller); s.ECalls != want {
		t.Errorf("ECalls = %d, want %d", s.ECalls, want)
	}
	if peak > tcs {
		t.Errorf("observed %d concurrent enclave threads, TCS pool is %d", peak, tcs)
	}
	if s.TCSMaxBusy > tcs {
		t.Errorf("TCSMaxBusy = %d exceeds pool size %d", s.TCSMaxBusy, tcs)
	}
	if s.TCSBusy != 0 {
		t.Errorf("TCSBusy = %d after all calls returned", s.TCSBusy)
	}
}

// TestTCSWaitCounted pins the saturation counter: with a single TCS, a
// second concurrent ECALL must park and be counted in TCSWaits.
func TestTCSWaitCounted(t *testing.T) {
	e := newConcEnclave(t, 1)
	defer e.Destroy()

	inside := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = e.ECall("holder", func() error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside

	done := make(chan error, 1)
	go func() {
		done <- e.ECall("waiter", func() error { return nil })
	}()
	// The waiter can only complete after the holder releases.
	for e.Stats().TCSWaits == 0 {
		select {
		case err := <-done:
			t.Fatalf("waiter completed while TCS was held (err=%v)", err)
		default:
			runtime.Gosched()
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if s := e.Stats(); s.TCSWaits == 0 {
		t.Error("TCSWaits = 0, want at least 1")
	}
}

// TestNestedECallStillRejected keeps the single-entry contract: the same
// goroutine may not re-enter, while a different goroutine may.
func TestNestedECallStillRejected(t *testing.T) {
	e := newConcEnclave(t, 2)
	defer e.Destroy()

	err := e.ECall("outer", func() error {
		// Same goroutine: rejected.
		if nerr := e.ECall("inner", func() error { return nil }); !errors.Is(nerr, ErrInsideEnclave) {
			t.Errorf("same-goroutine nested ECall = %v, want ErrInsideEnclave", nerr)
		}
		// Different goroutine: its own TCS.
		other := make(chan error, 1)
		go func() {
			other <- e.ECall("sibling", func() error { return nil })
		}()
		if oerr := <-other; oerr != nil {
			t.Errorf("sibling-goroutine ECall = %v, want nil", oerr)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("outer ECall: %v", err)
	}
}

// TestDestroyWakesTCSWaiters: goroutines parked on a saturated pool must
// fail with ErrDestroyed instead of hanging when the enclave dies.
func TestDestroyWakesTCSWaiters(t *testing.T) {
	e := newConcEnclave(t, 1)

	inside := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		holderDone <- e.ECall("holder", func() error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside

	waiterDone := make(chan error, 1)
	go func() {
		waiterDone <- e.ECall("waiter", func() error { return nil })
	}()
	// A waiter whose context is still live is woken by Destroy too.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxWaiterDone := make(chan error, 1)
	go func() {
		ctxWaiterDone <- e.ECallCtx(ctx, "ctx-waiter", func() error { return nil })
	}()
	for e.Stats().TCSWaits < 2 {
		runtime.Gosched()
	}

	// Destroy must first release the holder (it blocks until in-flight
	// calls drain), so let it go from a third goroutine once destruction
	// has begun rejecting new entries.
	go func() {
		for !e.isDestroyed() {
			runtime.Gosched()
		}
		close(release)
	}()
	e.Destroy()

	if err := <-waiterDone; !errors.Is(err, ErrDestroyed) {
		t.Errorf("parked waiter = %v, want ErrDestroyed", err)
	}
	if err := <-ctxWaiterDone; !errors.Is(err, ErrDestroyed) {
		t.Errorf("parked ECallCtx waiter = %v, want ErrDestroyed", err)
	}
	if err := <-holderDone; err != nil {
		t.Errorf("holder = %v, want nil (it entered before Destroy)", err)
	}
	if err := e.ECall("late", func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Errorf("post-destroy ECall = %v, want ErrDestroyed", err)
	}
}

// TestConcurrentTouchConservation: concurrent touches of disjoint page
// sets must conserve fault accounting — every page faulted at least once,
// and residency never exceeds the EPC bound.
func TestConcurrentTouchConservation(t *testing.T) {
	cfg := TestConfig()
	cfg.TCSNum = 4
	cfg.EPCUsable = 64 << 10 // 16 resident pages: force churn
	p := NewPlatform("conc-touch")
	e, err := p.NewEnclave(cfg, []byte("conc"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	defer e.Destroy()

	const goroutines, pagesEach = 4, 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := int64(g) * pagesEach * PageSize
			for round := 0; round < 8; round++ {
				for pg := int64(0); pg < pagesEach; pg++ {
					if err := e.Memory().Touch(base+pg*PageSize, 1); err != nil {
						t.Errorf("Touch: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	m := e.Memory()
	if m.Resident() > int(cfg.EPCUsable/PageSize) {
		t.Errorf("resident = %d pages, EPC holds %d", m.Resident(), cfg.EPCUsable/PageSize)
	}
	if m.Faults() < goroutines*pagesEach {
		t.Errorf("faults = %d, want at least %d (every page faults once)", m.Faults(), goroutines*pagesEach)
	}
	if m.Faults()-m.Evictions() != int64(m.Resident()) {
		t.Errorf("conservation violated: faults %d - evictions %d != resident %d",
			m.Faults(), m.Evictions(), m.Resident())
	}
}

// TestSaturatedPoolRejectsNestingAndAdmitsParked fills every TCS, has
// each holder attempt a nested ECall (which must be rejected, not parked
// behind itself), and checks that one more goroutine parks and is
// admitted as soon as a holder leaves.
func TestSaturatedPoolRejectsNestingAndAdmitsParked(t *testing.T) {
	const tcs = 4
	e := newConcEnclave(t, tcs)
	defer e.Destroy()

	var entered, holders sync.WaitGroup
	release := make(chan struct{})
	for g := 0; g < tcs; g++ {
		entered.Add(1)
		holders.Add(1)
		go func() {
			defer holders.Done()
			err := e.ECall("holder", func() error {
				entered.Done()
				entered.Wait() // every TCS is bound from here on
				if nerr := e.ECall("nested", func() error { return nil }); !errors.Is(nerr, ErrInsideEnclave) {
					t.Errorf("nested ECall on a saturated pool = %v, want ErrInsideEnclave", nerr)
				}
				<-release
				return nil
			})
			if err != nil {
				t.Errorf("holder: %v", err)
			}
		}()
	}
	entered.Wait()

	parked := make(chan error, 1)
	go func() { parked <- e.ECall("parked", func() error { return nil }) }()
	for e.Stats().TCSWaits == 0 {
		select {
		case err := <-parked:
			t.Fatalf("extra caller completed while every TCS was held (err=%v)", err)
		default:
			runtime.Gosched()
		}
	}
	close(release)
	if err := <-parked; err != nil {
		t.Errorf("parked caller = %v, want nil", err)
	}
	holders.Wait()

	s := e.Stats()
	if s.TCSWaits != 1 {
		t.Errorf("TCSWaits = %d, want 1 (nested calls must not park)", s.TCSWaits)
	}
	if s.ECalls != tcs+1 {
		t.Errorf("ECalls = %d, want %d (rejected nestings are not entries)", s.ECalls, tcs+1)
	}
	if s.TCSMaxBusy != tcs || s.TCSBusy != 0 {
		t.Errorf("TCSMaxBusy/TCSBusy = %d/%d, want %d/0", s.TCSMaxBusy, s.TCSBusy, tcs)
	}
}

// TestNestedECallOnOneTCSDoesNotPark: with a single TCS a nested call
// that reached the semaphore would deadlock on its own slot.
func TestNestedECallOnOneTCSDoesNotPark(t *testing.T) {
	e := newConcEnclave(t, 1)
	defer e.Destroy()
	err := e.ECall("outer", func() error {
		return e.ECall("inner", func() error { return nil })
	})
	if !errors.Is(err, ErrInsideEnclave) {
		t.Errorf("nested ECall = %v, want ErrInsideEnclave", err)
	}
	if w := e.Stats().TCSWaits; w != 0 {
		t.Errorf("TCSWaits = %d, want 0", w)
	}
}

// TestReentryAfterReturn: leaving the enclave clears the caller's
// identity, so the same goroutine can enter again, and so can the many
// short-lived goroutines for which the runtime recycles one g.
func TestReentryAfterReturn(t *testing.T) {
	e := newConcEnclave(t, 2)
	defer e.Destroy()
	nop := func() error { return nil }
	for i := 0; i < 2; i++ {
		if err := e.ECall("again", nop); err != nil {
			t.Fatalf("entry %d on one goroutine: %v", i, err)
		}
	}
	for i := 0; i < 10000; i++ {
		done := make(chan error)
		go func() { done <- e.ECall("short-lived", nop) }()
		if err := <-done; err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestGoroutineTokens holds both identity providers (the one ECall uses
// on this architecture and the portable fallback) to the gate's
// contract: stable on one goroutine, distinct across live goroutines,
// never the free-TCS marker.
func TestGoroutineTokens(t *testing.T) {
	for name, tok := range map[string]func() uintptr{"gtoken": gtoken, "stackToken": stackToken} {
		mine := tok()
		if mine == 0 || tok() != mine {
			t.Errorf("%s: two calls on one goroutine gave %#x then %#x", name, mine, tok())
		}
		other := make(chan uintptr)
		go func() { other <- tok() }() // blocked in the send, so still live when compared
		if theirs := <-other; theirs == 0 || theirs == mine {
			t.Errorf("%s: a second live goroutine got %#x, this one has %#x", name, theirs, mine)
		}
	}
}

//go:noinline
func atDepth(n int, fn func()) {
	if n > 0 {
		atDepth(n-1, fn)
		return
	}
	fn()
}

// TestEmptyECallCost pins the rule in doc.go: with TransitionCost 0 an
// entry is bookkeeping only, so it must not allocate and must not depend
// on how deep the caller's stack is (the stack-dump identity cost 12 µs
// at a third of this depth).
func TestEmptyECallCost(t *testing.T) {
	e := newConcEnclave(t, 0)
	defer e.Destroy()
	nop := func() error { return nil }
	if allocs := testing.AllocsPerRun(1000, func() { _ = e.ECall("empty", nop) }); allocs != 0 {
		t.Errorf("empty ECall allocates %.0f objects per call, want 0", allocs)
	}
	const calls = 20000
	best := time.Duration(1 << 62)
	atDepth(32, func() {
		for batch := 0; batch < 5; batch++ {
			start := time.Now()
			for i := 0; i < calls; i++ {
				_ = e.ECall("empty", nop)
			}
			if d := time.Since(start) / calls; d < best {
				best = d
			}
		}
	})
	t.Logf("empty ECall, 32 frames deep: %v", best)
	if best > 2*time.Microsecond && !raceEnabled {
		t.Errorf("empty ECall costs %v 32 frames deep, want under 2µs", best)
	}
}
