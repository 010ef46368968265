package sgx

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// ringConfig returns a fast, deterministic ring for tests: free costs and a
// short park timeout so lifecycle transitions are observable.
func ringConfig() SwitchlessConfig {
	return SwitchlessConfig{
		Slots:      4,
		MaxPayload: 4096,
		WorkerIdle: 5 * time.Millisecond,
	}
}

func TestSwitchlessColdWorkerFallsBack(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	err := e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 16, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	st := e.Stats()
	if st.WorkerWakeups != 1 || st.FallbackOCalls != 1 || st.SwitchlessCalls != 0 {
		t.Errorf("cold call stats = %+v, want 1 wakeup + 1 fallback", st)
	}
	if st.OCalls != 1 {
		t.Errorf("OCalls = %d, want 1 (the fallback is a real OCall)", st.OCalls)
	}
}

func TestSwitchlessWarmWorkerRidesTheRing(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	var served int
	err := e.ECall("main", func() error {
		for i := 0; i < 10; i++ {
			if err := e.SwitchlessOCall("io", 16, func() error { served++; return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if served != 10 {
		t.Fatalf("served = %d, want 10", served)
	}
	st := e.Stats()
	if st.SwitchlessCalls != 9 || st.FallbackOCalls != 1 {
		t.Errorf("stats = %+v, want 9 switchless + 1 cold fallback", st)
	}
	// Conservation: every request is either a ring ride or a real OCall.
	if st.OCalls+st.SwitchlessCalls != 10 {
		t.Errorf("OCalls(%d) + SwitchlessCalls(%d) != 10 requests", st.OCalls, st.SwitchlessCalls)
	}
}

func TestSwitchlessOversizedPayloadTakesSlowPath(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	err := e.ECall("main", func() error {
		// Warm the worker first so the next fallback is attributable to
		// the payload policy alone.
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		return e.SwitchlessOCall("big", 1<<20, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	st := e.Stats()
	if st.FallbackOCalls != 2 { // cold wakeup + oversized
		t.Errorf("FallbackOCalls = %d, want 2", st.FallbackOCalls)
	}
	if st.SwitchlessCalls != 1 {
		t.Errorf("SwitchlessCalls = %d, want 1", st.SwitchlessCalls)
	}
}

// TestSwitchlessRingFullFallsBack is the ring-full accounting test: with
// the worker flagged busy and every slot occupied, a request must become a
// real OCall and be counted as a fallback.
func TestSwitchlessRingFullFallsBack(t *testing.T) {
	e := newTestEnclave(t)
	r := e.EnableSwitchless(ringConfig())

	// Simulate a saturated ring: mark the worker running without spawning
	// it, and stuff every slot. Requests now find running && queue full.
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	for i := 0; i < r.cfg.Slots; i++ {
		r.queue <- &slreq{done: make(chan error, 1)}
	}

	var ran bool
	err := e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 16, func() error { ran = true; return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if !ran {
		t.Fatal("ring-full request was dropped instead of falling back")
	}
	st := e.Stats()
	if st.FallbackOCalls != 1 || st.OCalls != 1 || st.SwitchlessCalls != 0 {
		t.Errorf("stats = %+v, want exactly one fallback OCall", st)
	}

	// Drain the stuffed slots so the spawned-later worker (none here) or
	// the GC cannot observe half-built requests.
	for i := 0; i < r.cfg.Slots; i++ {
		<-r.queue
	}
}

func TestSwitchlessOCallOutsideEnclave(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	err := e.SwitchlessOCall("bad", 0, func() error { return nil })
	if !errors.Is(err, ErrOutsideEnclave) {
		t.Errorf("SwitchlessOCall outside = %v, want ErrOutsideEnclave", err)
	}
}

func TestSwitchlessOCallWithoutRingIsOCall(t *testing.T) {
	e := newTestEnclave(t)
	var ran bool
	err := e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 16, func() error { ran = true; return nil })
	})
	if err != nil || !ran {
		t.Fatalf("SwitchlessOCall without ring: err=%v ran=%v", err, ran)
	}
	st := e.Stats()
	if st.OCalls != 1 || st.SwitchlessCalls != 0 || st.FallbackOCalls != 0 {
		t.Errorf("stats = %+v, want plain OCall accounting", st)
	}
}

func TestSwitchlessStoppedRingFallsBack(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	e.ring.stop()
	err := e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 16, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if st := e.Stats(); st.OCalls != 1 || st.SwitchlessCalls != 0 {
		t.Errorf("stats after stop = %+v, want classic OCall", st)
	}
}

func TestSwitchlessDestroyedEnclave(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	e.Destroy()
	if err := e.SwitchlessOCall("io", 0, func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Errorf("SwitchlessOCall after destroy = %v, want ErrDestroyed", err)
	}
}

func TestSwitchlessErrorPropagates(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	want := errors.New("disk on fire")
	err := e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		return e.SwitchlessOCall("io", 0, func() error { return want })
	})
	if !errors.Is(err, want) {
		t.Errorf("switchless error = %v, want %v", err, want)
	}
}

func TestSwitchlessPanicPropagates(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	defer func() {
		if p := recover(); p != "worker boom" {
			t.Errorf("recovered %v, want worker boom", p)
		}
	}()
	_ = e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		return e.SwitchlessOCall("io", 0, func() error { panic("worker boom") })
	})
	t.Fatal("panic in switchless closure did not unwind the enclave thread")
}

func TestSwitchlessWorkerParksWhenIdle(t *testing.T) {
	e := newTestEnclave(t)
	r := e.EnableSwitchless(ringConfig())
	err := e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		return e.SwitchlessOCall("io", 0, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		running := r.running
		r.mu.Unlock()
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker did not park after WorkerIdle")
		}
		time.Sleep(time.Millisecond)
	}
	// The next call pays the wakeup again.
	_ = e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 0, func() error { return nil })
	})
	if st := e.Stats(); st.WorkerWakeups != 2 {
		t.Errorf("WorkerWakeups = %d, want 2 (one per park)", st.WorkerWakeups)
	}
}

// TestSwitchlessSharedStateHandshake drives shared host state through both
// the ring and the classic path. Run under -race this validates that the
// request/response handshake publishes worker-side writes to the enclave
// thread.
func TestSwitchlessSharedStateHandshake(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	state := make(map[int]int)
	err := e.ECall("main", func() error {
		for i := 0; i < 200; i++ {
			i := i
			var err error
			if i%10 == 3 {
				// Classic path interleaved with ring rides.
				err = e.OCall("direct", func() error { state[i] = i * 2; return nil })
			} else {
				err = e.SwitchlessOCall("ring", 8, func() error { state[i] = i * 2; return nil })
			}
			if err != nil {
				return err
			}
			// Enclave-side read of worker-side writes.
			if state[i] != i*2 {
				t.Errorf("state[%d] = %d after call returned", i, state[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if len(state) != 200 {
		t.Errorf("len(state) = %d, want 200", len(state))
	}
}

// --- transition accounting edge cases (PR 2 satellite) ---

// TestOCallTimerAttribution verifies a classic OCall is counted once and
// costs two crossings in wall time.
func TestOCallTimerAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cost := 200 * time.Microsecond
	e := newTestEnclave(t, func(c *Config) { c.TransitionCost = cost })
	var took time.Duration
	err := e.ECall("main", func() error {
		start := time.Now()
		err := e.OCall("io", func() error { return nil })
		took = time.Since(start)
		return err
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if took < 2*cost {
		t.Errorf("OCall took %v, want >= %v (two crossings)", took, 2*cost)
	}
	if got := e.Stats().OCalls; got != 1 {
		t.Errorf("Stats.OCalls = %d, want 1", got)
	}
}

// TestSwitchlessTimerAttribution verifies ring rides are counted apart from
// classic OCalls, so the two series stay distinguishable.
func TestSwitchlessTimerAttribution(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())
	err := e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		return e.SwitchlessOCall("io", 0, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	st := e.Stats()
	if st.SwitchlessCalls != 1 {
		t.Errorf("Stats.SwitchlessCalls = %d, want 1", st.SwitchlessCalls)
	}
	if st.WorkerWakeups != 1 {
		t.Errorf("Stats.WorkerWakeups = %d, want 1", st.WorkerWakeups)
	}
	if st.OCalls != 1 { // the cold fallback only
		t.Errorf("Stats.OCalls = %d, want 1", st.OCalls)
	}
}

// TestOCallInsideOCallBody: the body of an OCall runs outside the enclave,
// so issuing another OCall from it must fail like any outside-issued OCall.
func TestOCallInsideOCallBody(t *testing.T) {
	e := newTestEnclave(t)
	err := e.ECall("main", func() error {
		return e.OCall("outer", func() error {
			return e.OCall("inner", func() error { return nil })
		})
	})
	if !errors.Is(err, ErrOutsideEnclave) {
		t.Errorf("OCall inside OCall body = %v, want ErrOutsideEnclave", err)
	}
}

func TestEnableSwitchlessIdempotent(t *testing.T) {
	e := newTestEnclave(t)
	r1 := e.EnableSwitchless(ringConfig())
	r2 := e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
	if r1 != r2 {
		t.Error("EnableSwitchless replaced an existing ring")
	}
	if e.Switchless() != r1 {
		t.Error("Switchless() did not return the attached ring")
	}
}

// TestRideCostIndependentOfGap pins the ring's rule (ISSUE 19): a ride on a
// ring in use costs the same whatever the enclave thread did since the last
// one. Before the worker polled through the gaps it observes, a ride after
// 20 µs of compute cost ≈ 6x a back-to-back ride and after 100 µs ≈ 8x: the
// worker had blocked and the caller paid the scheduler's wake of an idle P.
func TestRideCostIndependentOfGap(t *testing.T) {
	e := benchEnclave(t)
	defer e.Destroy()
	e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
	median := func(gap time.Duration) time.Duration {
		rides := timeRides(e, 2000, gap)
		slices.Sort(rides)
		return rides[len(rides)/2]
	}
	var report string
	for attempt := 0; attempt < 3; attempt++ {
		var base, at20, at100 time.Duration
		_ = e.ECall("main", func() error {
			timeRides(e, 200, 0) // cold fallback, then a warm worker
			base, at20, at100 = median(0), median(20*time.Microsecond), median(100*time.Microsecond)
			return nil
		})
		report = fmt.Sprintf("median ride %v back to back, %v after 20µs, %v after 100µs", base, at20, at100)
		if at20 <= 2*base && at100 <= 2*base {
			t.Log(report)
			return
		}
	}
	if raceEnabled {
		t.Skip("wall-clock bound stands down under -race: " + report)
	}
	t.Errorf("%s: want both within 2x of back to back on one of three attempts", report)
}

// TestSparseRingPollsAtFloor is the other side of the rule: a worker that
// keeps seeing gaps it could not poll through stops trying, so a sparse ring
// costs a pollFloor of processor per request and not the gap.
func TestSparseRingPollsAtFloor(t *testing.T) {
	e := benchEnclave(t)
	defer e.Destroy()
	r := e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
	_ = e.ECall("main", func() error {
		// Reading the worker's state here is ordered by the response of the
		// ride just taken (see worker).
		for attempt := 0; r.pollWindow() <= pollFloor; attempt++ {
			if attempt == 3 {
				t.Fatalf("window = %v after rides 50µs apart, want it above the floor", r.pollWindow())
			}
			timeRides(e, 200, 50*time.Microsecond)
		}
		for i := 0; i < 50; i++ {
			time.Sleep(5 * time.Millisecond)
			timeRides(e, 1, 0)
		}
		if w := r.pollWindow(); w != pollFloor {
			t.Errorf("window = %v after 50 arrivals 5ms apart, want the floor %v", w, pollFloor)
		}
		return nil
	})
	if st := e.Stats(); st.WorkerWakeups != 1 {
		t.Errorf("WorkerWakeups = %d, want 1: arrivals inside WorkerIdle must find the worker blocked, not parked", st.WorkerWakeups)
	}
}
