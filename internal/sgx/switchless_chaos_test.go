package sgx

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Fault coverage for the enclave layer: a stalling host closure must
// delay (not corrupt) switchless responses, Destroy must stay lossless
// while the drain worker is stalled mid-request, and a bounded TCS wait
// must convert enclave saturation into ErrTCSTimeout. Faults come only
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

// TestECallTCSWaitTimeout: with every TCS held, a bounded-wait ECALL
// fails with ErrTCSTimeout (and is counted) instead of parking forever;
// with the holder gone the next ECALL succeeds.
func TestECallTCSWaitTimeout(t *testing.T) {
	cfg := TestConfig()
	cfg.TCSNum = 1
	cfg.TCSWaitTimeout = 2 * time.Millisecond
	e, err := NewPlatform("tcs-timeout").NewEnclave(cfg, []byte("code"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
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

	if err := e.ECall("starved", func() error { return nil }); !errors.Is(err, ErrTCSTimeout) {
		t.Fatalf("ECall with all TCS busy = %v, want ErrTCSTimeout", err)
	}
	st := e.Stats()
	if st.TCSTimeouts != 1 || st.TCSWaits != 1 {
		t.Errorf("stats = %+v, want 1 TCS wait and 1 timeout", st)
	}

	close(release)
	// The freed TCS admits the next caller; retry briefly to absorb the
	// holder's exit latency.
	deadline := time.Now().Add(time.Second)
	for {
		if err := e.ECall("retry", func() error { return nil }); err == nil {
			break
		} else if !errors.Is(err, ErrTCSTimeout) {
			t.Fatalf("retry ECall: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("TCS never freed after the holder exited")
		}
	}
}
