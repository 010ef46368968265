package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"twine/internal/sgx"
	"twine/internal/wasi"
	"twine/internal/wasm"
)

// The serving front door (PR 3, hardened in PR 6, made multi-tenant-ready
// in PR 8). TWINE's evaluation drives one instance at a time; a runtime
// serving real traffic multiplexes many requests over a fixed set of
// enclave resources. Pool is that front door: N instances of one module,
// each with isolated guest memory and WASI state, served concurrently
// through the enclave's TCS pool.
//
// Worker instantiation is copy-from-snapshot: the first worker is built
// the expensive way (decode, AoT translation, linking, data segments,
// start function — all inside an ECALL), its post-initialisation state is
// snapshotted once, and every further worker is stamped out as a memory
// copy. Workers are long-lived, but no request sees another's state: a
// worker is reset to the golden snapshot at the end of every request,
// failed or not, inside the serve ECALL the request already paid. The
// reset covers guest memory, globals and table (Instance.ResetFromSnapshot,
// one in-place copy) and the WASI descriptor table (wasi.System.Reset,
// which closes what the guest left open). Wasm linear memory has no
// internal protection, so this reset is what keeps one request's
// corruption — a trap mid-mutation, a hostile input — away from the next.
// State that must outlive a request lives in an Instance or an EmbeddedDB.
//
// Admission control (PR 6): an overloaded pool fails fast (ErrOverloaded)
// instead of queueing without bound. MaxQueue caps how many Submits may
// wait, and the caller's context deadline bounds how long — for a worker
// and for a TCS alike.
//
// PR 8 also makes acquisition FIFO-fair: waiters queue in arrival order
// and a freed worker is handed directly to the head waiter, so a stream
// of hot submitters cannot starve an earlier arrival (the regression the
// starvation test pins).

// PoolConfig sizes a serving pool.
type PoolConfig struct {
	// Workers is the number of concurrent instances (default: the
	// enclave's TCS count — more workers than TCS just queue on entry).
	Workers int
	// Entry is the exported guest function invoked per request
	// (default "run").
	Entry string
	// Init, when set, names an exported function invoked once on the
	// first worker before the snapshot is taken, so one-time guest
	// initialisation (a WASI _start, a warmup routine) is shared by every
	// worker instead of re-run per instance.
	Init string
	// HostIO, when set, is executed outside the enclave (a classic OCALL)
	// at the start of every request, modelling the untrusted transport a
	// server pays per request — receiving the request and delivering the
	// response through host memory. Blocking work belongs here, not on
	// the switchless ring.
	HostIO func() error
	// MaxQueue caps how many Submits may wait for a worker at once
	// (0 = unbounded). A Submit arriving with the queue full fails
	// immediately with ErrOverloaded instead of joining it — admission
	// control, so overload surfaces as fast rejections rather than
	// unbounded latency.
	MaxQueue int
	// Stdout/Stderr receive the workers' guest output (default: discard;
	// a shared writer would interleave concurrent workers' output).
	Stdout io.Writer
	Stderr io.Writer

	// swap, when set, enrolls the pool's warm workers in a registry-wide
	// swap tier (PR 9): idle workers may be suspended — EPC arena
	// released, nothing written outside the enclave — and are resumed
	// from the golden snapshot when acquired: an idle worker is always
	// that snapshot. Set by Registry.Register; unexported because the
	// swap group belongs to the registry.
	swap *swapGroup
}

// PoolStats counts serving activity. Stats() captures the admission-side
// fields (Waits, Rejected, TimedOut, QueueDepth) in one consistent
// snapshot under the pool lock, so QueueDepth can never be observed above
// MaxQueue (PR 8 — previously the gauge was sampled non-atomically with
// the counters).
type PoolStats struct {
	// Requests is the number of Submits served: they entered the enclave
	// and ran, and their worker was reset, whether the guest returned or
	// failed. Rejected and TimedOut count the Submits that never entered.
	Requests int64
	// Waits is the number of Submits that found every worker busy and had
	// to queue — the pool-level saturation signal (the enclave-level one
	// is Stats.TCSWaits).
	Waits int64
	// Rejected counts Submits refused at admission because the queue was
	// already MaxQueue deep.
	Rejected int64
	// TimedOut counts Submits whose context deadline expired while they
	// waited for a worker or for a TCS, before they entered the enclave.
	TimedOut int64
	// QueueDepth is the number of Submits currently waiting for a worker
	// (a gauge, not a counter).
	QueueDepth int64
	// WarmResets counts workers reset to the golden snapshot at the end
	// of a request; every served request pays one, so it equals Requests.
	WarmResets int64
	// Quarantined and ColdStarts are always 0: a failed request's worker
	// is reset like any other, and every request runs on a warm worker.
	// They stay only for readers that predate that.
	Quarantined int64
	ColdStarts  int64
	// Suspends counts workers swapped out of the EPC (arena discarded);
	// Resumes counts workers swapped back in on acquisition. Suspended is
	// the current gauge; the conservation law Suspends == Resumes +
	// Suspended always holds.
	Suspends  int64
	Resumes   int64
	Suspended int64
}

// poolWaiter is one queued Submit. A freed worker is handed directly to
// the head waiter through its buffered channel (a direct handoff, so
// wakeup order is exactly arrival order); a waiter that abandons the
// queue (timeout, cancellation, close) removes itself under the pool
// lock, or — having lost that race to a concurrent handoff — receives the
// worker and puts it back.
type poolWaiter struct {
	ch chan *worker
}

// worker is one pool slot: a stable identity plus whatever currently
// backs it. A warm worker embeds a live *Instance; a suspended worker
// (PR 9) and a retired worker of a closed pool have Instance == nil. The
// id survives suspension; a resumed worker gets a fresh WASI clone.
// Mutated only by the goroutine currently holding the worker, except
// idleSince (pool lock), the suspend path (which first steals the worker
// off the free list, making itself the holder) and Close (which owns a
// closed pool's free list).
type worker struct {
	*Instance
	id int
	// idleSince is when the worker last entered the free list; victim
	// selection prefers the longest-idle among equally cold workers.
	idleSince time.Time
}

// Pool serves concurrent requests over N instances of one module.
// Submit and Serve are safe for concurrent use; Close may race them (a
// queued Submit observes ErrPoolClosed deterministically).
type Pool struct {
	rt       *Runtime
	mod      *Module
	entry    string
	hostIO   func() error
	size     int
	maxQueue int

	// swap is the registry-wide swap group this pool's warm workers are
	// enrolled in (nil: no swap tier, workers stay resident until Close).
	swap *swapGroup

	// snap is the post-init state every worker was stamped from; the
	// per-request reset and swap resume restore it. newSys builds a
	// worker's WASI clone.
	snap   *wasm.Snapshot
	newSys func(i int) (*wasi.System, error)

	// mu guards the free list, the FIFO waiter queue, the closed flag and
	// the admission counters, so admission decisions and Stats snapshots
	// are mutually consistent.
	mu         sync.Mutex
	free       []*worker
	waiters    []*poolWaiter
	waits      int64
	rejected   int64
	timedOut   int64
	closedFlag bool

	requests     int64 // atomic
	warmResets   int64 // atomic
	suspends     int64 // atomic
	resumes      int64 // atomic
	suspendedNow int64 // atomic gauge

	hist       latencyHist
	resumeHist latencyHist

	closeOnce sync.Once
	closed    chan struct{}
}

var (
	// ErrPoolClosed is returned by Submit after Close.
	ErrPoolClosed = errors.New("twine: pool closed")
	// ErrOverloaded is returned (possibly wrapped) when admission control
	// refuses or abandons a Submit: the queue is MaxQueue deep, or the
	// context deadline expired before a worker and a TCS were both free.
	// It is the caller's backpressure signal — shed load or retry later.
	ErrOverloaded = errors.New("twine: pool overloaded")
)

// NewPool builds a serving pool of cfg.Workers instances of mod. The
// first instance is fully instantiated (and optionally initialised via
// cfg.Init); its state is the golden snapshot the rest are copied from
// and every request's reset restores.
func (rt *Runtime) NewPool(mod *Module, cfg PoolConfig) (*Pool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = rt.Enclave.TCSCount()
	}
	if cfg.Entry == "" {
		cfg.Entry = "run"
	}
	stdout, stderr := cfg.Stdout, cfg.Stderr
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}

	p := &Pool{
		rt:       rt,
		mod:      mod,
		entry:    cfg.Entry,
		hostIO:   cfg.HostIO,
		size:     cfg.Workers,
		maxQueue: cfg.MaxQueue,
		swap:     cfg.swap,
		free:     make([]*worker, 0, cfg.Workers),
		closed:   make(chan struct{}),
	}
	p.newSys = func(i int) (*wasi.System, error) {
		return rt.Sys.Clone(wasi.CloneOptions{
			Args:   []string{fmt.Sprintf("worker-%d", i)},
			Stdout: stdout,
			Stderr: stderr,
		})
	}

	// A pool that fails to build hands back every arena it took.
	var built []*Instance
	fail := func(err error) (*Pool, error) {
		for _, inst := range built {
			_ = rt.Enclave.ECall("twine_suspend", inst.Release)
		}
		return nil, err
	}

	// Worker 0: the expensive path, once.
	sys0, err := p.newSys(0)
	if err != nil {
		return nil, err
	}
	first, err := rt.newInstance(mod, sys0, nil)
	if err != nil {
		return nil, err
	}
	built = append(built, first)
	if cfg.Init != "" {
		// The golden state is Init's memory over the descriptor table
		// NewSystem built: what Init left open is closed in its ECALL.
		if err := rt.Enclave.ECall("twine_invoke", func() error {
			if _, err := first.In.Invoke(cfg.Init); err != nil {
				return err
			}
			return first.Sys.Reset()
		}); err != nil {
			return fail(fmt.Errorf("twine: pool init %q: %w", cfg.Init, err))
		}
	}
	p.snap = first.In.Snapshot()
	p.free = append(p.free, &worker{Instance: first, id: 0, idleSince: time.Now()})

	// Workers 1..N-1: copy-from-snapshot.
	for i := 1; i < cfg.Workers; i++ {
		sys, err := p.newSys(i)
		if err != nil {
			return fail(err)
		}
		w, err := rt.newInstance(mod, sys, p.snap)
		if err != nil {
			return fail(err)
		}
		built = append(built, w)
		p.free = append(p.free, &worker{Instance: w, id: i, idleSince: time.Now()})
	}
	if p.swap != nil {
		// Enroll under the registry-wide resident bound: the group may
		// immediately suspend this pool's (or another pool's) coldest idle
		// workers to get back under MaxResident.
		p.swap.enroll(p, len(p.free))
	}
	return p, nil
}

// Size returns the number of worker instances.
func (p *Pool) Size() int { return p.size }

// Stats returns a snapshot of the pool counters. The admission-side
// fields are captured together under the pool lock, so the reported
// QueueDepth is the depth the Waits/Rejected/TimedOut counters describe
// and never exceeds MaxQueue.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	s := PoolStats{
		Waits:      p.waits,
		Rejected:   p.rejected,
		TimedOut:   p.timedOut,
		QueueDepth: int64(len(p.waiters)),
	}
	p.mu.Unlock()
	s.Requests = atomic.LoadInt64(&p.requests)
	s.WarmResets = atomic.LoadInt64(&p.warmResets)
	s.Suspends = atomic.LoadInt64(&p.suspends)
	s.Resumes = atomic.LoadInt64(&p.resumes)
	s.Suspended = atomic.LoadInt64(&p.suspendedNow)
	return s
}

// Latency returns the pool's completed-request latency summary
// (fixed-bucket histogram quantiles; wall time from admission to
// completion, queueing included).
func (p *Pool) Latency() LatencySummary { return p.hist.summary() }

// ResumeLatency returns the swap tier's resume-cost summary: wall time
// from acquiring a suspended worker to it being serve-ready (snapshot
// instantiation, EPC page-in — and any victim suspension the resume had
// to perform to find headroom).
func (p *Pool) ResumeLatency() LatencySummary { return p.resumeHist.summary() }

// Submit serves one request with no deadline: it binds a free worker
// (queueing while all are busy, subject to admission control), enters
// the enclave (waiting for a TCS while all are busy), runs the
// per-request host I/O (if any) and the entry function against args,
// resets the worker, and returns the results. Safe for any number of
// concurrent callers.
func (p *Pool) Submit(args ...uint64) ([]uint64, error) {
	return p.SubmitCtx(context.Background(), args...)
}

// SubmitCtx is Submit bounded by ctx: a Submit still waiting for a worker
// or for a TCS when ctx's deadline expires fails with an error wrapping
// ErrOverloaded and leaves its worker untouched (plain cancellation
// returns ctx.Err()). The deadline does not cover guest execution: once
// inside the enclave a request runs to completion.
func (p *Pool) SubmitCtx(ctx context.Context, args ...uint64) ([]uint64, error) {
	start := time.Now()
	w, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	out, err := p.serve(ctx, w, args)
	p.release(w)
	p.hist.observe(time.Since(start))
	return out, err
}

// serve runs one request on w in one twine_serve ECALL: the host I/O
// OCALL, the entry function, then the reset — guest memory, globals and
// table back to the golden snapshot, the WASI descriptor table back to
// the one NewSystem built — whether the request failed or not. A request
// that never entered the enclave ran nothing against w.
func (p *Pool) serve(ctx context.Context, w *worker, args []uint64) ([]uint64, error) {
	var out []uint64
	entered := false
	err := p.rt.Enclave.ECallCtx(ctx, "twine_serve", func() error {
		entered = true
		var err error
		if p.hostIO != nil {
			err = p.rt.Enclave.OCall("serve.io", p.hostIO)
		}
		if err == nil {
			out, err = w.In.Invoke(p.entry, args...)
		}
		if rerr := w.In.ResetFromSnapshot(p.snap); rerr != nil {
			return fmt.Errorf("twine: reset worker %d: %w", w.id, rerr)
		}
		// Closing what the guest left open flushes its writes; a failed
		// flush fails a request that had succeeded.
		if rerr := w.Sys.Reset(); err == nil {
			err = rerr
		}
		atomic.AddInt64(&p.warmResets, 1)
		return err
	})
	if !entered {
		return nil, p.waitErr(ctx, err)
	}
	atomic.AddInt64(&p.requests, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// acquire binds a free worker under the pool's admission policy. Wakeup
// order is FIFO-fair: a Submit that finds earlier arrivals queued joins
// the queue behind them even if a worker happens to be free (release
// prefers waiters, so a free worker coexisting with waiters is a
// transient), and a freed worker is handed directly to the head waiter.
func (p *Pool) acquire(ctx context.Context) (*worker, error) {
	p.mu.Lock()
	if p.closedFlag {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if len(p.waiters) == 0 && len(p.free) > 0 {
		w := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.mu.Unlock()
		return p.postAcquire(ctx, w)
	}
	// Every worker is busy (or earlier arrivals are queued): join the
	// queue, subject to admission control. The depth check and the
	// enqueue are one critical section, so concurrent arrivals cannot all
	// observe a below-cap depth and the queue never exceeds MaxQueue.
	p.waits++
	if p.maxQueue > 0 && len(p.waiters) >= p.maxQueue {
		p.rejected++
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: queue full (%d waiting)", ErrOverloaded, p.maxQueue)
	}
	wtr := &poolWaiter{ch: make(chan *worker, 1)}
	p.waiters = append(p.waiters, wtr)
	p.mu.Unlock()

	select {
	case w := <-wtr.ch:
		return p.postAcquire(ctx, w)
	case <-ctx.Done():
		p.abandon(wtr)
		return nil, p.waitErr(ctx, ctx.Err())
	case <-p.closed:
		p.abandon(wtr)
		return nil, ErrPoolClosed
	}
}

// postAcquire is the gate every successful bind passes through. First
// the close re-check: a worker handed to a Submit that lost the race
// with Close goes straight back, so every queued Submit observes
// ErrPoolClosed deterministically and no worker is leaked out of the
// free list. Then transparent resume (PR 9): a suspended worker is
// instantiated from the golden snapshot before the caller sees it, so
// suspension is invisible to Submit beyond latency.
func (p *Pool) postAcquire(ctx context.Context, w *worker) (*worker, error) {
	select {
	case <-p.closed:
		p.release(w)
		return nil, ErrPoolClosed
	default:
	}
	if w.Instance == nil {
		if err := p.resumeWorker(ctx, w); err != nil {
			// The worker stays suspended; the next acquisition retries
			// the resume.
			p.release(w)
			if err == ctx.Err() {
				return nil, p.waitErr(ctx, err)
			}
			return nil, fmt.Errorf("twine: resume worker %d: %w", w.id, err)
		}
	}
	return w, nil
}

// waitErr is the error of a request that never entered the enclave. If
// ctx's deadline ended its wait, for a worker or for a TCS, that is
// overload: ErrOverloaded wrapping ctx.Err(), counted in TimedOut. Any
// other error, a cancellation included, is returned unchanged.
func (p *Pool) waitErr(ctx context.Context, err error) error {
	if err != context.DeadlineExceeded || err != ctx.Err() {
		return err
	}
	p.mu.Lock()
	p.timedOut++
	p.mu.Unlock()
	return fmt.Errorf("%w: %w", ErrOverloaded, err)
}

// abandon removes a waiter that gave up (deadline, cancellation, close).
// If a concurrent release already popped it, the handoff is in flight:
// receive the worker and put it back so pool capacity is not leaked.
func (p *Pool) abandon(wtr *poolWaiter) {
	p.mu.Lock()
	for i, q := range p.waiters {
		if q == wtr {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			p.mu.Unlock()
			return
		}
	}
	p.mu.Unlock()
	p.release(<-wtr.ch)
}

// release returns a worker to the pool: a direct handoff to the head
// waiter when one is queued (FIFO — the handoff, not a broadcast, is
// what makes wakeup order arrival order), the free list otherwise. A
// worker coming back to a closed pool gives its arena back first; the
// waiters of a closed pool leave the queue on their own.
func (p *Pool) release(w *worker) {
	p.mu.Lock()
	if p.closedFlag {
		p.mu.Unlock()
		p.retire(w)
		p.mu.Lock()
		p.free = append(p.free, w)
		p.mu.Unlock()
		return
	}
	if len(p.waiters) > 0 {
		wtr := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.mu.Unlock()
		wtr.ch <- w // buffered: a waiter is popped at most once
		return
	}
	w.idleSince = time.Now()
	p.free = append(p.free, w)
	p.mu.Unlock()
}

// releaseArena returns a warm worker's guest arena to the enclave inside
// one twine_suspend ECALL — EPC residency for the worker drops to exactly
// zero and nothing is written outside the enclave. The caller must hold
// the worker exclusively.
func (p *Pool) releaseArena(ctx context.Context, w *worker) error {
	if err := p.rt.Enclave.ECallCtx(ctx, "twine_suspend", w.Instance.Release); err != nil {
		return err
	}
	w.Instance = nil
	return nil
}

// suspendWorker swaps a warm worker out of the EPC (PR 9) by releasing
// its arena. The caller must hold the worker exclusively (stolen from
// the free list). An idle worker is the golden snapshot the resume
// instantiates from, and its descriptor table is the one NewSystem
// built, so nothing is lost: the resumed worker gets a fresh clone.
func (p *Pool) suspendWorker(ctx context.Context, w *worker) error {
	if err := p.releaseArena(ctx, w); err != nil {
		return err
	}
	atomic.AddInt64(&p.suspends, 1)
	atomic.AddInt64(&p.suspendedNow, 1)
	return nil
}

// retire takes a worker of a closed pool out of service: its arena goes
// back to the enclave and its residency slot back to the swap group. The
// slot goes back even when the release fails (the enclave is gone): the
// worker has left the group either way.
func (p *Pool) retire(w *worker) {
	if w.Instance == nil {
		return
	}
	_ = p.releaseArena(context.Background(), w)
	if p.swap != nil {
		p.swap.unreserve()
	}
}

// resumeWorker swaps a suspended worker back in: instantiate the golden
// snapshot and page its memory into the EPC, inside one twine_resume
// ECALL, so a resumed worker's next invocation faults exactly like one
// that never left (ELDU semantics: swap-in writes the pages, so they are
// resident and referenced). Before allocating, the swap group is asked
// for headroom, which may synchronously suspend victims elsewhere; if the
// arena still does not fit (EPC headroom is policy, enclave heap is
// physics), one more victim is evicted per retry until the group runs
// out of victims. ctx bounds each of those ECALLs' wait for a TCS.
func (p *Pool) resumeWorker(ctx context.Context, w *worker) (err error) {
	start := time.Now()
	// Only the swap group suspends, so p.swap is set. Reserve the
	// residency slot up front (suspending victims as needed); a failed
	// resume hands it back.
	p.swap.reserve(ctx)
	defer func() {
		if err != nil {
			p.swap.unreserve()
		}
	}()
	sys, err := p.newSys(w.id)
	if err != nil {
		return err
	}
	var inst *Instance
	for {
		err = p.rt.Enclave.ECallCtx(ctx, "twine_resume", func() error {
			var ierr error
			inst, ierr = p.rt.instantiate(p.mod, sys, p.snap)
			if ierr != nil {
				return ierr
			}
			if n := int64(p.snap.MemBytes()); n > 0 {
				_ = inst.mem.Touch(inst.arena, n)
			}
			return nil
		})
		if err == nil {
			break
		}
		if !errors.Is(err, sgx.ErrOutOfMemory) || !p.swap.evictOne(ctx) {
			return err
		}
	}
	w.Instance = inst
	atomic.AddInt64(&p.resumes, 1)
	atomic.AddInt64(&p.suspendedNow, -1)
	p.resumeHist.observe(time.Since(start))
	return nil
}

// victimCandidates snapshots this pool's idle, resident, stealable
// workers for the swap group's victim selection, with their working-set
// stats. Closed pools and suspended workers are excluded.
func (p *Pool) victimCandidates() []swapVictim {
	p.mu.Lock()
	if p.closedFlag {
		p.mu.Unlock()
		return nil
	}
	var out []swapVictim
	for _, w := range p.free {
		if w.Instance == nil {
			continue
		}
		res, ref := w.ResidencyStats()
		out = append(out, swapVictim{p: p, w: w, resident: res, referenced: ref, idleSince: w.idleSince})
	}
	p.mu.Unlock()
	return out
}

// stealWorker removes w from the free list if it is still there,
// making the caller its exclusive holder. It fails when a concurrent
// acquire got there first or the pool closed (Close owns a closed
// pool's free list) — victim selection then moves on.
func (p *Pool) stealWorker(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closedFlag {
		return false
	}
	for i, q := range p.free {
		if q == w {
			p.free = append(p.free[:i], p.free[i+1:]...)
			return true
		}
	}
	return false
}

// Serve runs n requests across the pool's workers and blocks until all
// have completed. args(i) supplies request i's arguments (nil means no
// arguments); done(i, out, err), when non-nil, receives each result and
// may be called from multiple goroutines concurrently. Serve returns the
// first error encountered (remaining requests still run to completion).
func (p *Pool) Serve(n int, args func(i int) []uint64, done func(i int, out []uint64, err error)) error {
	return p.ServeCtx(context.Background(), n, args, done)
}

// ServeCtx is Serve with every request bounded by ctx (see SubmitCtx).
func (p *Pool) ServeCtx(ctx context.Context, n int, args func(i int) []uint64, done func(i int, out []uint64, err error)) error {
	if n <= 0 {
		return nil
	}
	var (
		next     int64 = -1
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	workers := p.size
	if workers > n {
		workers = n
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				var a []uint64
				if args != nil {
					a = args(i)
				}
				out, err := p.SubmitCtx(ctx, a...)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
				if done != nil {
					done(i, out, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Close retires the pool. In-flight Submits complete; queued Submits fail
// with ErrPoolClosed (deterministically — a Submit that wins the race for
// a freed worker after Close re-checks and returns it, see postAcquire).
// Every worker's arena goes back to the enclave: the idle ones here, the
// busy ones when they come back. The runtime and its enclave stay alive
// (they may serve other pools); destroying the enclave is the runtime
// owner's call, and closing a pool after it is still fine.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closedFlag = true
		idle := append([]*worker(nil), p.free...)
		p.mu.Unlock()
		close(p.closed)
		if p.swap != nil {
			p.swap.leave(p)
		}
		for _, w := range idle {
			p.retire(w)
		}
	})
	return nil
}
