package sgx

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Fault coverage for the enclave layer: a stalling host closure must
// delay (not corrupt) switchless responses, Destroy must stay lossless
// while the drain worker is stalled mid-request, and a caller's context
// must end its wait on a saturated enclave. Faults come only
// from the host, so a stall is a host closure that sleeps.

// TestSwitchlessDrainStallPreservesResults: with every request's host
// closure stalling, the ring is slower but semantically untouched — each
// request's closure runs exactly once and its genuine result comes back.
func TestSwitchlessDrainStallPreservesResults(t *testing.T) {
	e := newTestEnclave(t)
	e.EnableSwitchless(ringConfig())

	const stall = 100 * time.Microsecond
	boom := errors.New("boom")
	var served int
	err := e.ECall("main", func() error {
		for i := 0; i < 8; i++ {
			err := e.SwitchlessOCall("io", 16, func() error {
				time.Sleep(stall)
				served++
				return nil
			})
			if err != nil {
				return err
			}
		}
		// Host-closure errors still propagate verbatim through a stalled
		// drain.
		err := e.SwitchlessOCall("io", 16, func() error {
			time.Sleep(stall)
			return boom
		})
		if !errors.Is(err, boom) {
			return errors.New("stalled drain lost the closure's error")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if served != 8 {
		t.Errorf("served = %d, want 8", served)
	}
	st := e.Stats()
	if st.SwitchlessCalls+st.FallbackOCalls != 9 {
		t.Errorf("conservation broke under stalls: ring %d + fallback %d != 9",
			st.SwitchlessCalls, st.FallbackOCalls)
	}
}

// TestSwitchlessDestroyDuringStalledDrain: Destroy fires while enqueuers
// are racing a drain worker that a slow host keeps stalling mid-request —
// the exact window where a lost poison or an unsignalled response channel
// would strand an enclave thread. Every caller must return and Destroy
// must complete.
func TestSwitchlessDestroyDuringStalledDrain(t *testing.T) {
	for round := 0; round < 10; round++ {
		e := newRingEnclave(t, 4, 4)
		// Every host closure stalls long enough that Destroy reliably
		// lands while the drain worker holds one.
		stalled := func() error { time.Sleep(200 * time.Microsecond); return nil }

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
						err := e.SwitchlessOCall("host.op", 32, stalled)
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
		time.Sleep(time.Duration(round%4) * 150 * time.Microsecond)
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
			t.Fatalf("round %d: enqueuers still blocked 10s after Destroy under drain stalls", round)
		}
		select {
		case <-destroyed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Destroy did not complete under drain stalls", round)
		}
	}
}

// TestECallCtxTCSWait: with every TCS held, an ECALL whose context ends
// while it is parked fails with the context's error — a deadline and a
// cancellation alike — without running fn or counting as an ECALL; with
// the holder gone the next ECALL succeeds.
func TestECallCtxTCSWait(t *testing.T) {
	cfg := TestConfig()
	cfg.TCSNum = 1
	e, err := NewPlatform("tcs-ctx").NewEnclave(cfg, []byte("code"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	defer e.Destroy()

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

	ran := false
	starved := func() error { ran = true; return nil }
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if err := e.ECallCtx(ctx, "starved", starved); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ECallCtx past its deadline with all TCS busy = %v, want DeadlineExceeded", err)
	}
	if st := e.Stats(); st.TCSWaits != 1 || st.ECalls != 1 {
		t.Errorf("stats = %+v, want 1 TCS wait and only the holder's ECALL", st)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- e.ECallCtx(cctx, "cancelled", starved) }()
	for e.Stats().TCSWaits < 2 {
		time.Sleep(time.Millisecond)
	}
	ccancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ECallCtx = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("fn ran although its ECALL never got a TCS")
	}
	if st := e.Stats(); st.ECalls != 1 {
		t.Errorf("ECalls = %d, want 1: a starved call never entered", st.ECalls)
	}

	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := e.ECallCtx(ctx, "next", starved); err != nil || !ran {
		t.Fatalf("ECallCtx on a free TCS = %v (ran %v), want it to run even with ctx done", err, ran)
	}
}
