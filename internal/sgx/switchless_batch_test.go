package sgx

import (
	"sync"
	"testing"
	"time"

	"twine/internal/chaos"
)

// batchRingConfig is ringConfig with batched cold-start admission enabled
// (PR 8).
func batchRingConfig() SwitchlessConfig {
	cfg := ringConfig()
	cfg.Batch = true
	return cfg
}

// With batching the cold-start request rides the ring instead of taking the
// SDK's cold-worker fallback: one wakeup, zero classic OCalls.
func TestSwitchlessBatchColdStartRidesRing(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(batchRingConfig())
	var ran bool
	err := e.ECall("main", func() error {
		return e.SwitchlessOCall("io", 16, func() error { ran = true; return nil })
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if !ran {
		t.Fatal("request was not served")
	}
	st := e.Stats()
	if st.WorkerWakeups != 1 || st.FallbackOCalls != 0 || st.SwitchlessCalls != 1 {
		t.Errorf("stats = %+v, want 1 wakeup + 1 ring ride + 0 fallbacks", st)
	}
	if st.OCalls != 0 {
		t.Errorf("OCalls = %d, want 0 (the cold start rode the ring)", st.OCalls)
	}
	if st.BatchedWakeups != 0 {
		t.Errorf("BatchedWakeups = %d, want 0 (a lone request has nothing to batch with)", st.BatchedWakeups)
	}
}

// The conservation law holds with batching on: every request is exactly one
// of a ring ride or a real OCall, so Calls + fallback OCalls == requests.
func TestSwitchlessBatchConservation(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(batchRingConfig())
	const n = 10
	err := e.ECall("main", func() error {
		for i := 0; i < n; i++ {
			if err := e.SwitchlessOCall("io", 16, func() error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	st := e.Stats()
	if st.OCalls+st.SwitchlessCalls != n {
		t.Errorf("OCalls(%d) + SwitchlessCalls(%d) != %d requests", st.OCalls, st.SwitchlessCalls, n)
	}
	if st.FallbackOCalls != 0 {
		t.Errorf("FallbackOCalls = %d, want 0 with batching on", st.FallbackOCalls)
	}
}

// Requests admitted while the drain worker is busy with an earlier request
// pile up behind it and share its wakeup: the second follower must observe a
// non-empty ring and be counted in BatchedWakeups.
func TestSwitchlessBatchAmortisesWakeups(t *testing.T) {
	e := newTestEnclave(t, func(c *Config) { c.TCSNum = 4 })
	cfg := batchRingConfig()
	// Stall the worker on the leader's request so the followers are
	// admitted while it is still held: the ring stays non-empty for the
	// whole stall window.
	cfg.DrainChaos = chaos.New(chaos.Plan{At: 1, Stall: 200 * time.Millisecond})
	r := e.EnableSwitchless(cfg)

	call := func(done chan<- error) {
		done <- e.ECall("main", func() error {
			return e.SwitchlessOCall("io", 16, func() error { return nil })
		})
	}
	waitCalls := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for r.Stats().Calls < want {
			if time.Now().After(deadline) {
				t.Fatalf("ring never admitted %d calls: %+v", want, r.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	leader := make(chan error, 1)
	go call(leader)
	waitCalls(1) // leader admitted; the worker dequeues it and stalls

	f1 := make(chan error, 1)
	go call(f1)
	waitCalls(2) // first follower queued behind the stalled drain

	f2 := make(chan error, 1)
	go call(f2)
	waitCalls(3) // second follower joins a non-empty ring → batched

	for _, ch := range []chan error{leader, f1, f2} {
		if err := <-ch; err != nil {
			t.Fatalf("batched call: %v", err)
		}
	}
	st := e.Stats()
	if st.WorkerWakeups != 1 {
		t.Errorf("WorkerWakeups = %d, want 1 (one wakeup for the whole batch)", st.WorkerWakeups)
	}
	if st.BatchedWakeups < 1 {
		t.Errorf("BatchedWakeups = %d, want >= 1 (f2 joined a non-empty ring)", st.BatchedWakeups)
	}
	if st.SwitchlessCalls != 3 || st.FallbackOCalls != 0 {
		t.Errorf("stats = %+v, want all 3 requests on the ring", st)
	}
}

// Concurrent hammer with batching on: admission, wakeup election and poison
// shutdown share the ring lock, so this is the -race coverage for the new
// admission path. The same hammer with batching off must never count a
// batched wakeup.
func TestSwitchlessBatchConcurrent(t *testing.T) {
	for _, batch := range []bool{true, false} {
		e := newTestEnclave(t, func(c *Config) { c.TCSNum = 4 })
		cfg := ringConfig()
		cfg.Batch = batch
		e.EnableSwitchless(cfg)
		const (
			goroutines = 4
			perG       = 25
		)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					err := e.ECall("main", func() error {
						return e.SwitchlessOCall("io", 16, func() error { return nil })
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent call, batch=%v: %v", batch, err)
		}
		st := e.Stats()
		if got := st.OCalls + st.SwitchlessCalls; got != goroutines*perG {
			t.Errorf("batch=%v: OCalls + SwitchlessCalls = %d, want %d (conservation)", batch, got, goroutines*perG)
		}
		if !batch && st.BatchedWakeups != 0 {
			t.Errorf("BatchedWakeups = %d with batching off, want 0", st.BatchedWakeups)
		}
		e.Destroy()
		if err := e.ECall("late", func() error { return nil }); err == nil {
			t.Error("ECall after Destroy succeeded")
		}
	}
}
