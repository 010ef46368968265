package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A request's context bounds every wait it makes before it enters the
// enclave: for a worker, for a TCS, and for the TCS its resume (and the
// suspend of the victim that resume evicts) needs. Once inside, the
// request runs to completion.

// guard is how long a test waits for a request its deadline should have
// ended long before, so a regression fails the test instead of hanging it.
const guard = time.Second

// submitWithin runs SubmitCtx under ctx in a goroutine and returns its
// wall time and error, failing the test if it has not returned within
// guard.
func submitWithin(t *testing.T, ctx context.Context, ten *Tenant) (time.Duration, error) {
	t.Helper()
	start := time.Now()
	res := make(chan error, 1)
	go func() {
		_, err := ten.SubmitCtx(ctx, 1)
		res <- err
	}()
	select {
	case err := <-res:
		return time.Since(start), err
	case <-time.After(guard):
		t.Fatalf("%s: SubmitCtx still waiting %v after it started", ten.Name(), guard)
		return 0, nil
	}
}

// TestDeadlineCoversTCSWait: a tenant whose requests hold every TCS
// cannot keep a neighbour's request waiting past its deadline. The
// neighbour's request fails as overload, never entered the enclave (not
// served, no reset), and its tenant serves once the TCS frees.
// A cancelled request reads as the bare cancellation.
func TestDeadlineCoversTCSWait(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()

	inHost := make(chan struct{})
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()
	hog, err := reg.Register("hog", pureModule(), TenantConfig{
		Workers: 2,
		HostIO: func() error {
			inHost <- struct{}{}
			<-gate
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Register hog: %v", err)
	}
	quiet, err := reg.Register("quiet", pureModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("Register quiet: %v", err)
	}

	hogDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := hog.Submit(1)
			hogDone <- err
		}()
	}
	<-inHost
	<-inHost // both TCS are held
	ecalls := rt.Enclave.Stats().ECalls

	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	took, err := submitWithin(t, ctx, quiet)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("quiet SubmitCtx = %v, want ErrOverloaded wrapping DeadlineExceeded", err)
	}
	if took > deadline+100*time.Millisecond {
		t.Errorf("quiet SubmitCtx took %v, want within %v of its %v deadline", took, 100*time.Millisecond, deadline)
	}
	if s := quiet.Stats().Pool; s.TimedOut != 1 || s.Requests != 0 || s.WarmResets != 0 {
		t.Errorf("quiet stats = %+v, want 1 timed out, none served or reset", s)
	}
	if got := rt.Enclave.Stats().ECalls; got != ecalls {
		t.Errorf("ECalls %d -> %d: a request that never entered paid an ECALL", ecalls, got)
	}

	waits := rt.Enclave.Stats().TCSWaits
	cctx, ccancel := context.WithCancel(context.Background())
	go func() {
		for rt.Enclave.Stats().TCSWaits == waits {
			time.Sleep(time.Millisecond)
		}
		ccancel()
	}()
	_, err = submitWithin(t, cctx, quiet)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled quiet SubmitCtx = %v, want bare context.Canceled", err)
	}
	if s := quiet.Stats().Pool; s.TimedOut != 1 {
		t.Errorf("TimedOut = %d after a cancellation, want 1", s.TimedOut)
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-hogDone; err != nil {
			t.Fatalf("hog Submit: %v", err)
		}
	}
	if _, err := quiet.Submit(1); err != nil {
		t.Fatalf("quiet Submit once the TCS freed: %v", err)
	}
}

// TestDeadlineCoversSuspendedResume: the deadline bounds a resume too.
// With the one TCS held, a request for a suspended tenant fails by its
// deadline; the victim its resume tried to suspend stays resident and
// untouched, and both tenants serve once the TCS frees.
func TestDeadlineCoversSuspendedResume(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{MaxResident: 1})
	defer reg.Close()
	a, err := reg.Register("a", pureModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("Register a: %v", err)
	}
	b, err := reg.Register("b", pureModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("Register b: %v", err)
	}
	asleep, victim := a, b
	if b.Stats().Pool.Suspended == 1 {
		asleep, victim = b, a
	}
	if asleep.Stats().Pool.Suspended != 1 || victim.Stats().Pool.Suspended != 0 {
		t.Fatalf("want exactly one tenant suspended under MaxResident 1: %+v / %+v",
			a.Stats().Pool, b.Stats().Pool)
	}
	conserved := func() {
		t.Helper()
		for _, ten := range []*Tenant{a, b} {
			if s := ten.Stats().Pool; s.Suspends != s.Resumes+s.Suspended {
				t.Errorf("%s: Suspends %d != Resumes %d + Suspended %d",
					ten.Name(), s.Suspends, s.Resumes, s.Suspended)
			}
		}
	}

	inside := make(chan struct{})
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()
	holderDone := make(chan error, 1)
	go func() {
		holderDone <- rt.Enclave.ECall("holder", func() error {
			close(inside)
			<-gate
			return nil
		})
	}()
	<-inside

	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	took, err := submitWithin(t, ctx, asleep)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx to the suspended tenant = %v, want ErrOverloaded wrapping DeadlineExceeded", err)
	}
	if took > deadline+100*time.Millisecond {
		t.Errorf("SubmitCtx took %v, want within %v of its %v deadline", took, 100*time.Millisecond, deadline)
	}
	conserved()
	if s := asleep.Stats().Pool; s.Suspended != 1 || s.TimedOut != 1 {
		t.Errorf("%s stats = %+v, want still suspended and 1 timed out", asleep.Name(), s)
	}
	if s := victim.Stats().Pool; s.Suspends != 0 || s.Suspended != 0 {
		t.Errorf("victim %s stats = %+v, want it never suspended", victim.Name(), s)
	}

	release()
	if err := <-holderDone; err != nil {
		t.Fatalf("holder ECall: %v", err)
	}
	if _, err := victim.Submit(1); err != nil {
		t.Fatalf("victim Submit once the TCS freed: %v", err)
	}
	if s := victim.Stats().Pool; s.Resumes != 0 {
		t.Errorf("victim %s resumed %d times, want it served resident", victim.Name(), s.Resumes)
	}
	if _, err := asleep.Submit(1); err != nil {
		t.Fatalf("suspended tenant's Submit once the TCS freed: %v", err)
	}
	conserved()
}
