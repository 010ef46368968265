package sgx

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newRingEnclave(t *testing.T, tcs, slots int) *Enclave {
	t.Helper()
	cfg := TestConfig()
	cfg.TCSNum = tcs
	p := NewPlatform("ring-conc")
	e, err := p.NewEnclave(cfg, []byte("ring"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	e.EnableSwitchless(SwitchlessConfig{
		Slots:      slots,
		MaxPayload: 32 << 10,
		WorkerIdle: time.Second, // stay hot for the whole test
	})
	return e
}

// TestSwitchlessConcurrentEnqueuers hammers the ring from several enclave
// threads at once. Every request must be served exactly once (the served
// count equals the issued count), and the ring/fallback split must
// conserve: each issued request is either a ring ride or a classic OCall.
func TestSwitchlessConcurrentEnqueuers(t *testing.T) {
	const tcs, callers, perCaller = 4, 4, 200
	e := newRingEnclave(t, tcs, 8)
	defer e.Destroy()

	var served int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.ECall("main", func() error {
				for i := 0; i < perCaller; i++ {
					if err := e.SwitchlessOCall("host.op", 64, func() error {
						atomic.AddInt64(&served, 1)
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("ECall: %v", err)
			}
		}()
	}
	wg.Wait()

	total := int64(callers * perCaller)
	if got := atomic.LoadInt64(&served); got != total {
		t.Errorf("served %d requests, issued %d", got, total)
	}
	s := e.Stats()
	if s.SwitchlessCalls+s.FallbackOCalls != total {
		t.Errorf("conservation: ring %d + fallback %d != issued %d",
			s.SwitchlessCalls, s.FallbackOCalls, total)
	}
	if s.OCalls != s.FallbackOCalls {
		t.Errorf("OCalls = %d, want %d (all classic calls here are fallbacks)",
			s.OCalls, s.FallbackOCalls)
	}
	if s.SwitchlessCalls == 0 {
		t.Error("no request rode the ring; the hot path never engaged")
	}
}

// TestSwitchlessConcurrentColdStart hammers a parked ring with one ECALL per
// request and a WorkerIdle short enough to park mid-run, so the election of
// the caller that re-spawns the worker races the other enqueuers under the
// ring lock: no request may be lost or counted twice, and Destroy must find
// a ring it can retire.
func TestSwitchlessConcurrentColdStart(t *testing.T) {
	const callers, perCaller = 4, 25
	e := newTestEnclave(t, func(c *Config) { c.TCSNum = callers })
	e.EnableSwitchless(ringConfig())
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				err := e.ECall("main", func() error {
					return e.SwitchlessOCall("io", 16, func() error { return nil })
				})
				if err != nil {
					t.Errorf("concurrent call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if got := st.OCalls + st.SwitchlessCalls; got != callers*perCaller {
		t.Errorf("OCalls + SwitchlessCalls = %d, want %d (conservation)", got, callers*perCaller)
	}
	if st.WorkerWakeups < 1 || st.OCalls != st.FallbackOCalls {
		t.Errorf("stats = %+v, want >= 1 wakeup and every classic call a fallback", st)
	}
	e.Destroy()
	if err := e.ECall("late", func() error { return nil }); err == nil {
		t.Error("ECall after Destroy succeeded")
	}
}

// TestSwitchlessFairnessUnderContention checks arrival-order service:
// with several enqueuers contending, no caller starves — every goroutine
// finishes its quota while the others keep submitting.
func TestSwitchlessFairnessUnderContention(t *testing.T) {
	const callers, perCaller = 3, 150
	e := newRingEnclave(t, callers, 4)
	defer e.Destroy()

	finished := make([]int64, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.ECall("main", func() error {
				for i := 0; i < perCaller; i++ {
					if err := e.SwitchlessOCall("host.op", 16, func() error { return nil }); err != nil {
						return err
					}
					atomic.AddInt64(&finished[g], 1)
				}
				return nil
			})
			if err != nil {
				t.Errorf("ECall[%d]: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for g := range finished {
		if finished[g] != perCaller {
			t.Errorf("caller %d finished %d/%d requests", g, finished[g], perCaller)
		}
	}
}

// TestSwitchlessDestroyRacingEnqueues is the lost-wakeup regression test:
// Destroy fires while enclave threads are mid-enqueue. Every caller must
// return (served, fallen back, or ErrDestroyed) — none may block forever
// on a response that never comes — and Destroy itself must complete.
func TestSwitchlessDestroyRacingEnqueues(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := newRingEnclave(t, 4, 4)

		const callers = 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_ = e.ECall("main", func() error {
					for {
						err := e.SwitchlessOCall("host.op", 32, func() error { return nil })
						if err != nil {
							if !errors.Is(err, ErrDestroyed) {
								t.Errorf("unexpected enqueue error: %v", err)
							}
							return err
						}
					}
				})
			}()
		}
		close(start)
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		destroyed := make(chan struct{})
		go func() {
			e.Destroy()
			close(destroyed)
		}()

		doneAll := make(chan struct{})
		go func() {
			wg.Wait()
			close(doneAll)
		}()
		select {
		case <-doneAll:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: enqueuers still blocked 10s after Destroy — lost wakeup", round)
		}
		select {
		case <-destroyed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Destroy did not complete", round)
		}
	}
}
