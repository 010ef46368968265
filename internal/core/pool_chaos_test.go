package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twine/internal/chaos"
	"twine/internal/hostfs"
	"twine/internal/wasi"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// PR 6 pool fault-containment coverage: admission control (overload,
// deadlines), deterministic Close, and the reset that follows a failed
// request.

// trapModule builds a worker with a poisoned path: run(0) bumps a memory
// counter and returns it; run(x≠0) first bumps the counter, then traps —
// leaving the mutation behind, exactly the half-applied state the
// per-request reset must scrub.
func trapModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.I32Const(0).I32Const(0).I32Load(0).I32Const(1).I32Add().I32Store(0)
	f.Block(wasmgen.BlockVoid)
	f.LocalGet(0).I32Eqz().BrIf(0)
	f.Unreachable()
	f.End()
	f.I32Const(0).I32Load(0)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// occupy drains every worker from the pool's free list so subsequent
// Submits deterministically queue; the returned function puts them back.
func occupy(t *testing.T, pool *Pool) func() {
	t.Helper()
	var held []*worker
	for i := 0; i < pool.Size(); i++ {
		held = append(held, pool.takeWorker(t))
	}
	return func() {
		for _, w := range held {
			pool.release(w)
		}
	}
}

// waitQueueDepth blocks until the pool's queue gauge reaches n.
func waitQueueDepth(t *testing.T, pool *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().QueueDepth != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", n, pool.Stats().QueueDepth)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestPoolOverloadExactCounters drives the pool through a fully
// deterministic overload episode and requires the exact counter set:
// one request queues (admitted), one is rejected at the cap, the queued
// one completes once a worker frees — Requests=1, Waits=2, Rejected=1,
// TimedOut=0, QueueDepth=0.
func TestPoolOverloadExactCounters(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	release := occupy(t, pool)

	// Request A is admitted to the queue.
	resA := make(chan error, 1)
	go func() {
		_, err := pool.Submit(3)
		resA <- err
	}()
	waitQueueDepth(t, pool, 1)

	// Request B finds the queue at MaxQueue and is rejected immediately.
	if _, err := pool.Submit(4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over cap = %v, want ErrOverloaded", err)
	}

	// A worker frees; A completes.
	release()
	if err := <-resA; err != nil {
		t.Fatalf("queued Submit: %v", err)
	}

	want := PoolStats{Requests: 1, WarmResets: 1, Waits: 2, Rejected: 1}
	if got := pool.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestPoolSubmitCtxDeadline: a context deadline bounds the wait (counted
// in TimedOut, classifiable as ErrOverloaded, leaving no one queued),
// while plain cancellation surfaces as the bare context error —
// cancellation is the caller's choice, not the pool's saturation. Once a
// worker frees, the next Submit succeeds.
func TestPoolSubmitCtxDeadline(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	release := occupy(t, pool)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = pool.SubmitCtx(ctx, 1)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx = %v, want ErrOverloaded wrapping DeadlineExceeded", err)
	}
	if s := pool.Stats(); s.TimedOut != 1 || s.Rejected != 0 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want exactly 1 timed-out and an empty queue", s)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := pool.SubmitCtx(ctx2, 1)
		res <- err
	}()
	waitQueueDepth(t, pool, 1)
	cancel2()
	if err := <-res; !errors.Is(err, context.Canceled) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled SubmitCtx = %v, want bare context.Canceled", err)
	}
	if s := pool.Stats(); s.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1 (the deadline, not the cancellation)", s.TimedOut)
	}
	release()
	if _, err := pool.Submit(1); err != nil {
		t.Fatalf("Submit after worker freed: %v", err)
	}
}

// TestPoolCloseReleasesQueuedSubmits is the Close/Submit race contract:
// every Submit queued at Close time observes ErrPoolClosed — even one
// that wins the race for a worker freed after Close — and no worker
// leaks from the free list.
func TestPoolCloseReleasesQueuedSubmits(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	release := occupy(t, pool)

	const queued = 3
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = pool.Submit(1)
		}()
	}
	waitQueueDepth(t, pool, queued)

	_ = pool.Close()
	// The worker frees after Close: a queued Submit may win it, but must
	// hand it back and still report ErrPoolClosed.
	release()
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("queued Submit %d = %v, want ErrPoolClosed", i, err)
		}
	}
	if got := pool.freeLen(); got != pool.Size() {
		t.Errorf("free list holds %d workers after Close, want %d (worker leaked)", got, pool.Size())
	}
	if s := pool.Stats(); s.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after Close drained the queue", s.QueueDepth)
	}
}

// TestPoolFailedRequestOneECall pins the rule for a failed request: a
// request that writes guest memory and then traps is reset inside the
// serve ECALL it already paid — one ECALL in all, no repair ECALL after
// it — and the next request on that worker answers like a fresh
// instance, over a worker whose memory is the golden snapshot again. A
// request failed by an unknown host error costs the same one ECALL.
func TestPoolFailedRequestOneECall(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(trapModule())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ref.Invoke("run", 0)
	if err != nil {
		t.Fatal(err)
	}
	errHost := errors.New("unknown host failure")
	var hostFails atomic.Bool
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1, HostIO: func() error {
		if hostFails.Load() {
			return errHost
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The poisoned request bumps the counter and traps, in one ECALL.
	ecalls := rt.Enclave.Stats().ECalls
	_, err = pool.Submit(1)
	var trap *wasm.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("poisoned Submit = %v, want a wasm trap", err)
	}
	if n := rt.Enclave.Stats().ECalls - ecalls; n != 1 {
		t.Errorf("a failed request cost %d ECALLs, want 1 (the serve that reset it)", n)
	}

	w := pool.takeWorker(t)
	counter, err := w.In.Memory().ReadU32(0)
	pool.release(w)
	if err != nil || counter != 0 {
		t.Errorf("worker counter after the trap = %d (%v), want 0 (golden)", counter, err)
	}
	out, err := pool.Submit(0)
	if err != nil {
		t.Fatalf("Submit after the trap: %v", err)
	}
	if out[0] != fresh[0] {
		t.Errorf("answer after the trap = %d, fresh instance = %d", out[0], fresh[0])
	}

	hostFails.Store(true)
	ecalls = rt.Enclave.Stats().ECalls
	if _, err := pool.Submit(0); !errors.Is(err, errHost) {
		t.Fatalf("Submit with a failing host = %v, want %v", err, errHost)
	}
	if n := rt.Enclave.Stats().ECalls - ecalls; n != 1 {
		t.Errorf("a request failed by the host cost %d ECALLs, want 1", n)
	}
	hostFails.Store(false)
	if out, err := pool.Submit(0); err != nil || out[0] != fresh[0] {
		t.Errorf("Submit after the host failure = %v, %v; want %d", out, err, fresh[0])
	}

	s := pool.Stats()
	if s.Requests != 4 || s.WarmResets != s.Requests {
		t.Errorf("stats = %+v, want 4 requests, one reset each", s)
	}
}

// TestPoolFailedRequestResetsWASI: the reset after a failed request
// covers the WASI descriptor table too — the worker keeps its System, and
// the next request, seen through the guest, gets the table NewSystem
// built (errno 0, fd 4), not the trapped request's leftovers.
func TestPoolFailedRequestResetsWASI(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(openerModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	w := pool.takeWorker(t)
	sys := w.Sys
	pool.release(w)
	for i := 0; i < 3; i++ {
		if _, err := pool.Submit(1); err == nil {
			t.Fatal("poisoned Submit did not fail")
		}
	}
	out, err := pool.Submit(0)
	if err != nil || out[0] != 4 {
		t.Fatalf("Submit after failed requests = %v, %v; want errno 0 / fd 4", out, err)
	}
	w = pool.takeWorker(t)
	defer pool.release(w)
	if w.Sys != sys || w.In.HostCtx() != sys {
		t.Error("the worker's WASI system was replaced; the reset is in place")
	}
}

// TestPoolFidelity is the serving path's acceptance guard, through both
// front doors (NewPool and Registry.Register): one worker on one TCS with
// switchless dispatch off must be bit-identical to a sequential baseline
// — same results, same ECALL/OCALL/fault/eviction counters on a workload
// that actually pages, same trap kind on failure. The baseline mirrors a
// worker's construction exactly: one load, one WASI clone, one
// instantiation, one snapshot, then per request one hand-rolled ECALL
// running {invoke; reset memory; reset the WASI table}, and one ECALL
// returning the arena at the end, as Close does. A front door may add
// capacity; it must never add or reorder enclave transitions.
func TestPoolFidelity(t *testing.T) {
	const requests = 2
	workload := func(module []byte, drive func(rt *Runtime, module []byte) (uint64, error)) (stats [4]int64, checksum uint64, err error) {
		cfg := testConfig(func(c *Config) {
			c.SGX.EPCSize = 128 << 10
			c.SGX.EPCUsable = 64 << 10
			c.SGX.HeapSize = 8 << 20
			c.SGX.TCSNum = 1
			c.Switchless = SwitchlessOff
		})
		rt, nerr := NewRuntime(cfg)
		if nerr != nil {
			t.Fatalf("NewRuntime: %v", nerr)
		}
		defer rt.Enclave.Destroy()
		checksum, err = drive(rt, module)
		s := rt.Enclave.Stats()
		return [4]int64{s.ECalls, s.OCalls, s.PageFaults, s.Evictions}, checksum, err
	}

	sequential := func(rt *Runtime, module []byte, args ...uint64) (uint64, error) {
		mod, err := rt.LoadModule(module)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		snap := inst.In.Snapshot()
		var sum uint64
		for i := 0; i < requests; i++ {
			var out []uint64
			serr := rt.Enclave.ECall("twine_serve", func() error {
				var ierr error
				out, ierr = inst.In.Invoke("run", args...)
				if rerr := inst.In.ResetFromSnapshot(snap); rerr != nil {
					return rerr
				}
				if rerr := inst.Sys.Reset(); ierr == nil {
					ierr = rerr
				}
				return ierr
			})
			if serr != nil {
				return 0, serr
			}
			sum = out[0]
		}
		// Closing the front door returns the worker's arena in one ECALL.
		return sum, rt.Enclave.ECall("twine_suspend", inst.Release)
	}

	// A front door opens one one-worker pool over module and returns its
	// submit function, its pool counters and its close.
	type door func(rt *Runtime, module []byte) (submit func(...uint64) ([]uint64, error), stats func() PoolStats, close func())
	doors := []struct {
		name string
		open door
	}{
		{"NewPool", func(rt *Runtime, module []byte) (func(...uint64) ([]uint64, error), func() PoolStats, func()) {
			mod, err := rt.LoadModule(module)
			if err != nil {
				t.Fatalf("LoadModule: %v", err)
			}
			pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			return pool.Submit, pool.Stats, func() { pool.Close() }
		}},
		{"Register", func(rt *Runtime, module []byte) (func(...uint64) ([]uint64, error), func() PoolStats, func()) {
			reg := rt.NewRegistry(RegistryConfig{})
			ten, err := reg.Register("solo", module, TenantConfig{})
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			submit := func(args ...uint64) ([]uint64, error) { return reg.Submit("solo", args...) }
			return submit, func() PoolStats { return ten.Stats().Pool }, func() {
				// A zero RegistryConfig never touches the swap tier, even
				// with the EPC paging under it.
				if s := reg.Stats(); s.Suspends != 0 || s.Resumes != 0 || s.Suspended != 0 {
					t.Errorf("zero RegistryConfig suspended a worker: %+v", s)
				}
				reg.Close()
			}
		}},
	}

	seqStats, seqSum, seqErr := workload(sweepModule(16<<10, 2), func(rt *Runtime, module []byte) (uint64, error) {
		return sequential(rt, module)
	})
	if seqErr != nil {
		t.Fatalf("sequential sweep: %v", seqErr)
	}
	if seqStats[2] == 0 || seqStats[3] == 0 {
		t.Fatal("workload did not page; fidelity test proves nothing")
	}
	trapKind := func(err error) wasm.TrapKind {
		var tr *wasm.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("trap workload returned %v, want *wasm.Trap", err)
		}
		return tr.Kind
	}
	_, _, err := workload(trapModule(), func(rt *Runtime, module []byte) (uint64, error) {
		return sequential(rt, module, 1) // nonzero arg = trap
	})
	seqTrap := trapKind(err)

	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			stats, sum, err := workload(sweepModule(16<<10, 2), func(rt *Runtime, module []byte) (uint64, error) {
				submit, poolStats, closeDoor := d.open(rt, module)
				defer closeDoor()
				var sum uint64
				for i := 0; i < requests; i++ {
					out, err := submit()
					if err != nil {
						return 0, err
					}
					sum = out[0]
				}
				if s := poolStats(); s.Requests != requests || s.WarmResets != requests {
					t.Errorf("front door run off the one serving path: %+v", s)
				}
				return sum, nil
			})
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if stats != seqStats {
				t.Errorf("fidelity broken: sequential %v, %s %v (ECalls, OCalls, faults, evictions)", seqStats, d.name, stats)
			}
			if sum != seqSum {
				t.Errorf("checksum diverged: sequential %#x, %s %#x", seqSum, d.name, sum)
			}
			// Trap kinds match too: a guest trap surfaces through the
			// front door as the same *wasm.Trap the sequential path sees.
			_, _, err = workload(trapModule(), func(rt *Runtime, module []byte) (uint64, error) {
				submit, _, closeDoor := d.open(rt, module)
				defer closeDoor()
				_, err := submit(1)
				return 0, err
			})
			if k := trapKind(err); k != seqTrap {
				t.Errorf("trap kind diverged: sequential %v, %s %v", seqTrap, d.name, k)
			}
		})
	}
}

// logModule builds a guest that appends one 16-byte record to "log.txt"
// per request: run() opens the file (creating it) with the append flag,
// writes the record and returns the failing call's errno, 0 if none. It
// leaves the descriptor open; the worker's reset closes it. A request is
// three host calls: path_open's stat, the open and the record's write.
func logModule() []byte {
	const fdSlot, iov, nOut = 256, 128, 144
	m := wasmgen.NewModule()
	pathOpen := m.ImportFunc("wasi_snapshot_preview1", "path_open",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32,
			wasmgen.I64, wasmgen.I64, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	path := "log.txt"
	m.Data(64, []byte(path))
	m.Data(96, []byte("sixteen-byte-rec"))
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32), wasmgen.I32)
	f.Block(wasmgen.BlockVoid)
	f.I32Const(3).I32Const(0).I32Const(64).I32Const(int32(len(path))).
		I32Const(1).                                     // oflags: CREAT
		I64Const((1 << 29) - 1).I64Const((1 << 29) - 1). // rights: all
		I32Const(1).                                     // fdflags: APPEND
		I32Const(fdSlot).Call(pathOpen).LocalTee(0)
	f.I32Eqz().BrIf(0)
	f.LocalGet(0).Return()
	f.End()
	f.I32Const(iov).I32Const(96).I32Store(0)
	f.I32Const(iov + 4).I32Const(16).I32Store(0)
	f.I32Const(fdSlot).I32Load(0).I32Const(iov).I32Const(1).I32Const(nOut).Call(fdWrite)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// TestRuntimeChaosRetry drives HostRetryMax and HostRetryBackoff, the
// fault-recovery plumbing of the WASI boundary, through the front door: a
// host (chaos.WrapFS over Config.HostFS) on which every fourth operation
// fails transiently is invisible to the guest when the boundary may retry,
// and without retries fails exactly the requests whose own host calls the
// plan hit, without costing the pool a worker.
func TestRuntimeChaosRetry(t *testing.T) {
	const requests = 12
	glitch := chaos.Transient(errors.New("host glitch"))
	open := func(retryMax, workers int) (*chaos.Injector, hostfs.FS, *Runtime, *Pool) {
		t.Helper()
		inj := chaos.New(chaos.Plan{EveryK: 4, Err: glitch})
		host := hostfs.NewMemFS()
		rt, err := NewRuntime(testConfig(func(c *Config) {
			c.FS = FSHost
			c.HostFS = chaos.WrapFS(host, inj)
			c.HostRetryMax = retryMax
			c.HostRetryBackoff = time.Microsecond
		}))
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		t.Cleanup(rt.Enclave.Destroy)
		mod, err := rt.LoadModule(logModule())
		if err != nil {
			t.Fatal(err)
		}
		pool, err := rt.NewPool(mod, PoolConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		return inj, host, rt, pool
	}

	// Two workers, alternating (holding the free list's top hands Submit
	// the other one): each serves through its own WASI clone over the one
	// shared host backend, so both consult one plan and count into one
	// RetryStats.
	inj, host, rt, pool := open(2, 2)
	for i := 0; i < requests; i++ {
		var held *worker
		if i%2 == 1 {
			held = pool.takeWorker(t)
		}
		out, err := pool.Submit()
		if err != nil || out[0] != 0 {
			t.Errorf("request %d with HostRetryMax 2: errno %v, %v", i, out, err)
		}
		if held != nil {
			pool.release(held)
		}
	}
	faults, retry := inj.Stats().Faults, rt.HostRetryStats()
	if faults < requests/2 {
		t.Errorf("%d faults injected over %d requests of 3 host calls; the workers' host calls do not reach the plan", faults, requests)
	}
	if retry.Retries != faults || retry.Recovered != faults || retry.Exhausted != 0 {
		t.Errorf("retry stats %+v, want every one of the %d faults retried once and recovered", retry, faults)
	}
	if ps := pool.Stats(); ps.Requests != requests || ps.WarmResets != requests {
		t.Errorf("pool stats %+v, want %d requests, one reset each", ps, requests)
	}
	// Every request appended its record through a descriptor of its own.
	if info, err := host.Stat("log.txt"); err != nil || info.Size != 16*requests {
		t.Errorf("log.txt on the host: %+v, %v; want %d bytes", info, err, 16*requests)
	}

	// No retry budget. A request's host calls are ordinals o+1 (path_open's
	// stat), o+2 (the open) and o+3 (the write); each is made only if the
	// one before it worked. A fault on any of them fails exactly that
	// request, as the guest's EIO, and the worker keeps serving: a
	// transient fault left no guest state behind.
	inj, _, rt, pool = open(0, 1)
	var failed int64
	faults = inj.Stats().Faults
	for i := 0; i < requests; i++ {
		before := inj.Stats().Ops
		out, err := pool.Submit()
		if err != nil {
			t.Fatalf("request %d with HostRetryMax 0: %v, want the fault as the guest's errno", i, err)
		}
		after := inj.Stats().Ops
		planned := false
		for op := before + 1; op <= after; op++ {
			planned = planned || inj.Selected(op)
		}
		switch {
		case planned && wasi.Errno(out[0]) != wasi.ErrnoIo:
			t.Errorf("request %d (host ops %d..%d, one selected) returned errno %d, want EIO", i, before+1, after, out[0])
		case !planned && out[0] != 0:
			t.Errorf("request %d (host ops %d..%d, none selected) returned errno %d, want 0", i, before+1, after, out[0])
		}
		if planned {
			failed++
		}
	}
	faults = inj.Stats().Faults - faults
	t.Logf("%d of %d requests failed, on %d injected faults", failed, requests, faults)
	if failed == 0 || failed == requests || failed != faults {
		t.Errorf("%d of %d requests failed, for %d injected faults; want a share of the requests failed, one per fault", failed, requests, faults)
	}
	if retry := rt.HostRetryStats(); retry.Retries != 0 {
		t.Errorf("retry stats %+v with HostRetryMax 0", retry)
	}
	if ps := pool.Stats(); ps.Requests != requests || ps.WarmResets != requests {
		t.Errorf("pool stats %+v, want %d requests, one reset each", ps, requests)
	}
}
