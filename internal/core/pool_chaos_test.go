package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"twine/internal/chaos"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// PR 6 pool fault-containment coverage: admission control (overload,
// deadlines), deterministic Close, and worker quarantine + repair.

// trapModule builds a worker with a poisoned path: run(0) bumps a memory
// counter and returns it (the stateful baseline); run(x≠0) first bumps
// the counter, then traps — leaving the mutation behind, exactly the
// half-applied state quarantine must scrub.
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

	want := PoolStats{Requests: 1, Waits: 2, Rejected: 1}
	if got := pool.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestPoolSubmitTimeout: a queued Submit abandons the wait after
// SubmitTimeout with an ErrOverloaded-wrapped error, counted in TimedOut;
// once a worker frees, the next Submit succeeds.
func TestPoolSubmitTimeout(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1, SubmitTimeout: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	release := occupy(t, pool)
	if _, err := pool.Submit(1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit = %v, want timeout wrapping ErrOverloaded", err)
	}
	if s := pool.Stats(); s.TimedOut != 1 || s.Rejected != 0 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want exactly 1 timed-out", s)
	}
	release()
	if _, err := pool.Submit(1); err != nil {
		t.Fatalf("Submit after worker freed: %v", err)
	}
}

// TestPoolSubmitCtxDeadline: a context deadline bounds the wait (counted
// with the timeouts, classifiable as ErrOverloaded), while plain
// cancellation surfaces as the bare context error — cancellation is the
// caller's choice, not the pool's saturation.
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
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = pool.SubmitCtx(ctx, 1)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx = %v, want ErrOverloaded wrapping DeadlineExceeded", err)
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

// TestPoolQuarantineRepair: a trapping request leaves a half-applied
// mutation in its worker; the pool must quarantine the worker and reset
// it to the snapshot, so the next request sees pristine state — not the
// trap's leftovers.
func TestPoolQuarantineRepair(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(trapModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Two clean requests accumulate worker state: 1, then 2.
	for want := uint64(1); want <= 2; want++ {
		out, err := pool.Submit(0)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if out[0] != want {
			t.Fatalf("counter = %d, want %d", out[0], want)
		}
	}

	// The poisoned request bumps the counter to 3 and traps.
	_, err = pool.Submit(1)
	var trap *wasm.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("poisoned Submit = %v, want a wasm trap", err)
	}

	// Repair reset the worker to the snapshot: the counter restarts at 1,
	// not 4 — the trap's half-applied bump was scrubbed.
	out, err := pool.Submit(0)
	if err != nil {
		t.Fatalf("Submit after repair: %v", err)
	}
	if out[0] != 1 {
		t.Errorf("counter after repair = %d, want 1 (snapshot state)", out[0])
	}

	s := pool.Stats()
	if s.Quarantined != 1 || s.Repaired != 1 {
		t.Errorf("stats = %+v, want 1 quarantined, 1 repaired", s)
	}
	if s.Requests != 3 {
		t.Errorf("Requests = %d, want 3 (the trap does not count)", s.Requests)
	}
}

// TestPoolRepairIsolatesWASIState: repair also replaces the worker's WASI
// system, so descriptor state dirtied by a failed request cannot leak
// into its successors.
func TestPoolRepairIsolatesWASIState(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(trapModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	w := pool.takeWorker(t)
	sysBefore := w.Sys
	pool.release(w)

	if _, err := pool.Submit(1); err == nil {
		t.Fatal("poisoned Submit did not fail")
	}

	w = pool.takeWorker(t)
	defer pool.release(w)
	if w.Sys == sysBefore {
		t.Error("repair kept the failed request's WASI system")
	}
	if got := w.In.HostCtx(); got != w.Sys {
		t.Error("repaired instance's host context does not match its new system")
	}
}

// TestQuarantineClassification pins the failure taxonomy: guest traps and
// unknown host errors poison a worker; a destroyed enclave and transient
// host faults do not.
func TestQuarantineClassification(t *testing.T) {
	if quarantinable(sgx.ErrDestroyed) {
		t.Error("destroyed enclave classified quarantinable; there is nothing to repair")
	}
	if quarantinable(chaos.Transient(errors.New("host stall"))) {
		t.Error("transient host fault classified quarantinable; guest state is intact")
	}
	if !quarantinable(&wasm.Trap{Kind: wasm.TrapUnreachable}) {
		t.Error("guest trap not classified quarantinable")
	}
	if !quarantinable(errors.New("unknown host failure")) {
		t.Error("unknown error not classified quarantinable; must fail safe")
	}
}

// TestPoolFidelity extends TestConcurrencyFidelity to the serving path:
// a quarantine-free single-worker pool run must be bit-identical — SGX
// counters and checksum — to the same workload driven sequentially on a
// plain instance. The pool adds containment machinery, never cost or
// divergence, when no fault fires.
func TestPoolFidelity(t *testing.T) {
	const requests = 2
	workload := func(drive func(rt *Runtime, mod *Module) uint64) (stats [4]int64, checksum uint64) {
		cfg := testConfig(func(c *Config) {
			c.SGX.EPCSize = 128 << 10
			c.SGX.EPCUsable = 64 << 10
			c.SGX.HeapSize = 8 << 20
			c.SGX.TCSNum = 1
			c.Switchless = SwitchlessOff
		})
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		defer rt.Enclave.Destroy()
		mod, err := rt.LoadModule(sweepModule(16<<10, 2))
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		checksum = drive(rt, mod)
		s := rt.Enclave.Stats()
		return [4]int64{s.ECalls, s.OCalls, s.PageFaults, s.Evictions}, checksum
	}

	seqStats, seqSum := workload(func(rt *Runtime, mod *Module) uint64 {
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		var sum uint64
		for i := 0; i < requests; i++ {
			out, err := inst.Invoke("run")
			if err != nil {
				t.Fatalf("Invoke: %v", err)
			}
			sum = out[0]
		}
		return sum
	})

	poolStats, poolSum := workload(func(rt *Runtime, mod *Module) uint64 {
		pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		defer pool.Close()
		var sum uint64
		for i := 0; i < requests; i++ {
			out, err := pool.Submit()
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			sum = out[0]
		}
		if s := pool.Stats(); s.Quarantined != 0 || s.Repaired != 0 {
			t.Fatalf("fault-free run quarantined workers: %+v", s)
		}
		return sum
	})

	if seqStats != poolStats {
		t.Errorf("fidelity broken: sequential %v, pool %v (ECalls, OCalls, faults, evictions)", seqStats, poolStats)
	}
	if seqSum != poolSum {
		t.Errorf("checksum diverged: sequential %#x, pool %#x", seqSum, poolSum)
	}
	if seqStats[2] == 0 || seqStats[3] == 0 {
		t.Fatal("workload did not page; fidelity test proves nothing")
	}
}

// logModule builds a guest that keeps one host file open per worker:
// run() opens (creating) "log.txt" on its first call, remembers the fd in
// memory, writes a 16-byte record through it and returns the failing
// call's errno, 0 if none. The record is small enough to be batched, so
// from a worker's second request on the one boundary crossing is the flush
// at the end of the guest entry, whose failure reaches Submit as an error.
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
	f.I32Const(fdSlot).I32Load(0).BrIf(0) // already open
	f.I32Const(3).I32Const(0).I32Const(64).I32Const(int32(len(path))).
		I32Const(1).                                     // oflags: CREAT
		I64Const((1 << 29) - 1).I64Const((1 << 29) - 1). // rights: all
		I32Const(0).I32Const(fdSlot).Call(pathOpen).LocalTee(0)
	f.I32Eqz().BrIf(0)
	f.I32Const(fdSlot).I32Const(0).I32Store(0)
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

// TestRuntimeChaosRetry drives Config.Chaos, HostRetryMax and
// HostRetryBackoff, the fault-recovery plumbing of the WASI boundary,
// through the front door: a host on which every third crossing fails
// transiently is invisible to the guest when the boundary may retry, and
// without retries fails the request it hit without costing the pool a worker.
func TestRuntimeChaosRetry(t *testing.T) {
	const requests = 12
	glitch := chaos.Transient(errors.New("host glitch"))
	open := func(retryMax, workers int) (*chaos.Injector, *Runtime, *Pool) {
		t.Helper()
		inj := chaos.New(chaos.Plan{EveryK: 3, Err: glitch})
		rt, err := NewRuntime(testConfig(func(c *Config) {
			c.FS = FSHost
			c.Chaos = inj
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
		return inj, rt, pool
	}

	// Two workers, alternating (holding the free list's top hands Submit
	// the other one): each serves through its own clone of the host
	// backend, and the clones consult one plan and count into one RetryStats.
	inj, rt, pool := open(2, 2)
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
	if faults < requests/3 {
		t.Errorf("%d faults injected over %d requests; the workers' backends do not consult the plan", faults, requests)
	}
	if retry.Retries != faults || retry.Recovered != faults || retry.Exhausted != 0 {
		t.Errorf("retry stats %+v, want every one of the %d faults retried once and recovered", retry, faults)
	}
	if ps := pool.Stats(); ps.Requests != requests || ps.Quarantined != 0 {
		t.Errorf("pool stats %+v, want %d requests and no quarantine", ps, requests)
	}
	// Each worker appended its half of the records through its own descriptor.
	if info, err := rt.Host.Stat("log.txt"); err != nil || info.Size != 16*requests/2 {
		t.Errorf("log.txt on the host: %+v, %v; want %d bytes", info, err, 16*requests/2)
	}

	// No retry budget. Once the worker holds its descriptor a request is one
	// crossing, so each fault fails exactly the request it hit, as itself,
	// and the worker keeps serving: a transient fault left no guest state
	// behind and there is nothing to repair.
	inj, rt, pool = open(0, 1)
	for {
		if out, err := pool.Submit(); err == nil && out[0] == 0 {
			break
		}
	}
	faults, failed := inj.Stats().Faults, int64(0)
	for i := 0; i < requests; i++ {
		if _, err := pool.Submit(); err != nil {
			if !chaos.IsTransient(err) {
				t.Fatalf("request %d with HostRetryMax 0: %v, want the injected transient fault", i, err)
			}
			failed++
		}
	}
	if faults = inj.Stats().Faults - faults; failed != faults || failed != requests/3 {
		t.Errorf("%d of %d requests failed for %d injected faults, want %d of each", failed, requests, faults, requests/3)
	}
	if retry := rt.HostRetryStats(); retry.Retries != 0 {
		t.Errorf("retry stats %+v with HostRetryMax 0", retry)
	}
	if ps := pool.Stats(); ps.Quarantined != 0 {
		t.Errorf("%d workers quarantined over transient host faults", ps.Quarantined)
	}
}
