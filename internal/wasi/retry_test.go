package wasi

import (
	"errors"
	"testing"

	"twine/internal/chaos"
	"twine/internal/hostfs"
)

// Boundary-retry coverage. Faults come from the host: each backend
// here runs over chaos.WrapFS, and each Stat is one host operation, so the
// injector's ordinals are the backend's host calls. The backends have no
// enclave, so each crossing runs the host closure directly — the retry
// logic under test is identical on the enclave path (retry wraps cross).

func retryBackend(plan chaos.Plan, policy RetryPolicy) (*HostBackend, *chaos.Injector) {
	inj := chaos.New(plan)
	h := NewHostBackend(chaos.WrapFS(hostfs.NewMemFS(), inj), nil)
	h.Retry = policy
	return h, inj
}

// TestBoundaryRetryRecoversTransient: a single injected transient fault
// is absorbed by one retry — the guest never sees it, and the counters
// record the recovery.
func TestBoundaryRetryRecoversTransient(t *testing.T) {
	h, inj := retryBackend(
		chaos.Plan{At: 2, Err: chaos.Transient(errors.New("host stall"))},
		RetryPolicy{Max: 2},
	)
	if _, err := h.Stat("/", true); err != nil { // crossing 1: clean
		t.Fatalf("Stat 1: %v", err)
	}
	// Crossing 2 is injected; the retry's crossing 3 succeeds.
	if _, err := h.Stat("/", true); err != nil {
		t.Fatalf("Stat 2 after retry: %v", err)
	}
	if s := h.RetryCounters(); s.Retries != 1 || s.Recovered != 1 || s.Exhausted != 0 {
		t.Errorf("counters = %+v, want 1 retry, 1 recovered", s)
	}
	if s := inj.Stats(); s.Ops != 3 || s.Faults != 1 {
		t.Errorf("injector = %+v, want 3 host operations, 1 fault", s)
	}
}

// TestBoundaryRetryExhaustsBudget: a persistent transient fault stops
// being absorbed once the budget is spent — the transient error surfaces
// and is classifiable by the caller.
func TestBoundaryRetryExhaustsBudget(t *testing.T) {
	h, inj := retryBackend(
		chaos.Plan{At: 1, Window: 1000, Err: chaos.Transient(errors.New("host down"))},
		RetryPolicy{Max: 3},
	)
	_, err := h.Stat("/", true)
	if !chaos.IsTransient(err) {
		t.Fatalf("Stat = %v, want a transient error after budget exhaustion", err)
	}
	if s := h.RetryCounters(); s.Retries != 3 || s.Recovered != 0 || s.Exhausted != 1 {
		t.Errorf("counters = %+v, want 3 retries, 1 exhausted", s)
	}
	if ops := inj.Stats().Ops; ops != 4 {
		t.Errorf("crossings = %d, want 4 (1 + Max retries)", ops)
	}
}

// TestBoundaryPermanentErrorNotRetried: only transient-classified errors
// are re-issued; a permanent fault surfaces on the first attempt.
func TestBoundaryPermanentErrorNotRetried(t *testing.T) {
	boom := errors.New("permanent corruption")
	h, inj := retryBackend(
		chaos.Plan{At: 1, Window: 1000, Err: boom},
		RetryPolicy{Max: 5},
	)
	if _, err := h.Stat("/", true); !errors.Is(err, boom) {
		t.Fatalf("Stat = %v, want the permanent error", err)
	}
	if s := h.RetryCounters(); s.Retries != 0 {
		t.Errorf("retried a permanent error: %+v", s)
	}
	if ops := inj.Stats().Ops; ops != 1 {
		t.Errorf("crossings = %d, want exactly 1", ops)
	}
}

// TestZeroPolicySurfacesTransients: with no retry budget the transient
// error surfaces immediately — the historical behaviour.
func TestZeroPolicySurfacesTransients(t *testing.T) {
	h, inj := retryBackend(
		chaos.Plan{At: 1, Err: chaos.Transient(nil)},
		RetryPolicy{},
	)
	if _, err := h.Stat("/", true); !chaos.IsTransient(err) {
		t.Fatalf("Stat = %v, want the transient error to surface", err)
	}
	if ops := inj.Stats().Ops; ops != 1 {
		t.Errorf("crossings = %d, want 1 (no retry)", ops)
	}
}

// TestCloneSharesFaultPlanAndCounters: two Systems cloned from one
// runtime's (the pool's per-worker systems) share its host backend, so
// they consume one injected operation stream and count into one
// RetryStats.
func TestCloneSharesFaultPlanAndCounters(t *testing.T) {
	h, inj := retryBackend(
		chaos.Plan{At: 2, Err: chaos.Transient(errors.New("glitch"))},
		RetryPolicy{Max: 1},
	)
	root, err := NewSystem(Config{FS: h, Preopens: map[string]string{"/": ""}})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var fs [2]Backend
	for i := range fs {
		s, err := root.Clone(CloneOptions{})
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		fs[i] = s.cfg.FS
	}
	// The first clone's operation 1 is clean; the second clone's operation
	// 2 is injected and its retry (operation 3) succeeds.
	for i, be := range fs {
		if _, err := be.Stat("/", true); err != nil {
			t.Fatalf("clone %d Stat: %v", i, err)
		}
	}
	if s := h.RetryCounters(); s.Retries != 1 || s.Recovered != 1 {
		t.Errorf("runtime counters = %+v, want the clone's recovery visible", s)
	}
	if ops := inj.Stats().Ops; ops != 3 {
		t.Errorf("shared injector saw %d ops, want 3", ops)
	}
}

// TestPathOpenHostFaultIsErrno: path_open's directory probe is a host
// Stat, and a failed Stat is the guest's errno, never read as "not a
// directory". Only "does not exist" falls through to the open, so O_CREAT
// keeps creating. Each case faults one host operation of the call: the
// stat is ordinal 1 and the open ordinal 2.
func TestPathOpenHostFaultIsErrno(t *testing.T) {
	glitch := errors.New("host glitch")
	cases := []struct {
		name   string
		path   string
		oflags uint32
		fault  chaos.Plan
		want   Errno
	}{
		{"directory, stat faulted", "d", 0, chaos.Plan{At: 1, Err: glitch}, ErrnoIo},
		{"directory, stat denied", "d", 0, chaos.Plan{At: 1, Err: hostfs.ErrPermission}, ErrnoAcces},
		{"file, stat faulted", "f", 0, chaos.Plan{At: 1, Err: glitch}, ErrnoIo},
		{"file, O_DIRECTORY, stat faulted", "f", oflagDirectory, chaos.Plan{At: 1, Err: glitch}, ErrnoIo},
		{"file, open faulted", "f", 0, chaos.Plan{At: 2, Err: glitch}, ErrnoIo},
		{"missing, O_CREAT", "new", oflagCreat, chaos.Plan{}, ErrnoSuccess},
		{"missing, O_CREAT, open faulted", "new", oflagCreat, chaos.Plan{At: 2, Err: glitch}, ErrnoIo},
		{"missing", "new", 0, chaos.Plan{}, ErrnoNoent},
		{"directory", "d", 0, chaos.Plan{}, ErrnoSuccess},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			host := hostfs.NewMemFS()
			if err := host.Mkdir("d"); err != nil {
				t.Fatal(err)
			}
			f, err := host.OpenFile("f", hostfs.OCreate|hostfs.OWrite)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			inj := chaos.New(c.fault)
			s := newSystem(t, NewHostBackend(chaos.WrapFS(host, inj), nil))
			in := newGuest(t)
			writeGuestString(t, in, 1024, c.path)
			const sentinel = 0xffffffff
			in.Memory().WriteU32(2048, sentinel)
			got := s.pathOpen(in, []uint64{
				3, 0, 1024, uint64(len(c.path)), uint64(c.oflags),
				uint64(RightsAll), uint64(RightsAll), 0, 2048,
			})
			if got != c.want {
				t.Fatalf("path_open(%q) = errno %d, want %d", c.path, got, c.want)
			}
			fd, _ := in.Memory().ReadU32(2048)
			if (fd != sentinel) != (c.want == ErrnoSuccess) {
				t.Errorf("path_open(%q) with errno %d wrote fd %d", c.path, got, fd)
			}
			if st := inj.Stats(); st.Faults != 0 && st.Ops != c.fault.At {
				t.Errorf("host operations = %d, want the call to stop at the faulted one (%d)", st.Ops, c.fault.At)
			}
		})
	}
}
