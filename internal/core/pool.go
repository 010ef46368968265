package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"twine/internal/chaos"
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
// copy. Workers are long-lived; whether they are stateful across requests
// is the pool's serving mode:
//
//   - Default (PR 3): workers keep their guest state between requests —
//     the standard stateful-serving trade.
//   - FreshState (PR 8): every request sees the golden snapshot. A
//     completed worker is reset in place (Instance.ResetFromSnapshot —
//     the PR 6 repair path promoted to the hot path, inside the same
//     serve ECALL) before re-entering the free list, so per-request
//     isolation costs one in-place memory copy, not a re-instantiation.
//   - ColdStart (PR 8, ablation): every request instantiates a fresh
//     instance from the snapshot and releases it afterwards — what
//     per-request isolation costs without warm free lists, the baseline
//     TestPoolColdStartServing holds warm reset's answers against.
//
// PR 6 adds fault containment on both sides of that trade:
//
//   - Admission control. An overloaded pool fails fast (ErrOverloaded)
//     instead of queueing without bound: MaxQueue caps how many Submits
//     may wait, SubmitTimeout / a context deadline bounds how long.
//   - Quarantine and repair. A request failure can leave a long-lived
//     worker with corrupted guest state (a trap aborts mid-mutation).
//     Failed workers are quarantined and repaired from the pool snapshot
//     — the same bytes a fresh worker is stamped from — before they serve
//     again, so one poisoned request cannot poison its successors.
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
	// SubmitTimeout bounds how long a queued Submit waits for a worker
	// (0 = forever). On expiry the Submit fails with an error wrapping
	// ErrOverloaded. A tighter context deadline passed to SubmitCtx wins.
	SubmitTimeout time.Duration
	// FreshState serves every request from the golden snapshot (PR 8):
	// after a successful request the worker is reset in place inside the
	// same serve ECALL, and its WASI descriptor table is re-cloned when
	// the request changed its shape. Per-request isolation on warm
	// workers — the registry's default serving mode.
	FreshState bool
	// ColdStart instantiates a fresh instance per request from the
	// snapshot and releases it afterwards (PR 8). It exists to price
	// FreshState: same isolation, none of the warm-free-list machinery.
	// Mutually exclusive with FreshState.
	ColdStart bool
	// Stdout/Stderr receive the workers' guest output (default: discard;
	// a shared writer would interleave concurrent workers' output).
	Stdout io.Writer
	Stderr io.Writer

	// swap, when set, enrolls the pool's warm workers in a registry-wide
	// swap tier (PR 9): idle workers may be suspended — state sealed to
	// untrusted storage, EPC arena released — and are transparently
	// resumed when acquired. swapLabel prefixes the per-worker sealing
	// labels; pinned exempts this pool's workers from victim selection.
	// Set by Registry.Register; unexported because the swap group's
	// lifecycle (and its reaper) belongs to the registry.
	swap      *swapGroup
	swapLabel string
	pinned    bool
}

// PoolStats counts serving activity. Stats() captures the admission-side
// fields (Waits, Rejected, TimedOut, QueueDepth) in one consistent
// snapshot under the pool lock, so QueueDepth can never be observed above
// MaxQueue (PR 8 — previously the gauge was sampled non-atomically with
// the counters).
type PoolStats struct {
	// Requests is the number of completed Submit calls.
	Requests int64
	// Waits is the number of Submits that found every worker busy and had
	// to queue — the pool-level saturation signal (the enclave-level one
	// is Stats.TCSWaits).
	Waits int64
	// Rejected counts Submits refused at admission because the queue was
	// already MaxQueue deep.
	Rejected int64
	// TimedOut counts queued Submits abandoned on SubmitTimeout or a
	// context deadline.
	TimedOut int64
	// QueueDepth is the number of Submits currently waiting for a worker
	// (a gauge, not a counter).
	QueueDepth int64
	// Quarantined counts workers pulled from service after a request
	// failure; Repaired counts those successfully reset from the pool
	// snapshot (the difference is repairs that themselves failed and will
	// be retried on the worker's next failure).
	Quarantined int64
	Repaired    int64
	// WarmResets counts requests whose worker was reset in place from the
	// warm free list (FreshState serving, PR 8); ColdStarts counts
	// requests served by a per-request instantiation (ColdStart serving).
	WarmResets int64
	ColdStarts int64
	// Suspends counts workers swapped out of the EPC (state sealed to
	// untrusted storage, arena discarded); Resumes counts workers swapped
	// back in on acquisition. Suspended is the current gauge; the
	// conservation law Suspends == Resumes + Suspended always holds.
	// SealBytes totals the sealed blob bytes written by suspends — the
	// swap tier's untrusted-storage traffic (PR 9).
	Suspends  int64
	Resumes   int64
	Suspended int64
	SealBytes int64
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
// (PR 9) has Instance == nil and carries its sealed state instead; a
// ColdStart pool's slots are pure concurrency tokens (Instance and
// sealed both nil, distinguished by Pool.cold). The identity fields —
// id, the WASI fingerprint baseline — survive suspension; descriptor
// state does not (resume re-clones the WASI system, exactly like
// repair). Mutated only by the goroutine currently holding the worker,
// except idleSince (pool lock) and the suspend path (which first steals
// the worker off the free list, making itself the holder).
type worker struct {
	*Instance
	id     int
	fdOpen int
	fdNext int32
	// sealed is the worker's suspended state: an AES-GCM blob sealed
	// under the pool's per-worker label, holding the snapshot delta
	// against the golden snapshot. Non-nil exactly while suspended.
	sealed []byte
	// idleSince is when the worker last entered the free list; victim
	// selection prefers the longest-idle among equally cold workers.
	idleSince time.Time
}

// Pool serves concurrent requests over N instances of one module.
// Submit and Serve are safe for concurrent use; Close may race them (a
// queued Submit observes ErrPoolClosed deterministically).
type Pool struct {
	rt            *Runtime
	mod           *Module
	entry         string
	hostIO        func() error
	size          int
	maxQueue      int
	submitTimeout time.Duration
	fresh         bool
	cold          bool
	pinned        bool
	swapLabel     string

	// swap is the registry-wide swap group this pool's warm workers are
	// enrolled in (nil: no swap tier, workers stay resident until Close).
	swap *swapGroup

	// snap is the post-init state every worker was stamped from; warm
	// reset, repair and swap resume restore it. newSys builds a worker's
	// WASI clone.
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
	quarantined  int64 // atomic
	repaired     int64 // atomic
	warmResets   int64 // atomic
	coldStarts   int64 // atomic
	coldSeq      int64 // atomic: cold instances' WASI identity sequence
	suspends     int64 // atomic
	resumes      int64 // atomic
	suspendedNow int64 // atomic gauge
	sealBytes    int64 // atomic

	hist       latencyHist
	resumeHist latencyHist

	closeOnce sync.Once
	closed    chan struct{}
}

var (
	// ErrPoolClosed is returned by Submit after Close.
	ErrPoolClosed = errors.New("twine: pool closed")
	// ErrOverloaded is returned (possibly wrapped) when admission control
	// refuses or abandons a Submit: the queue is MaxQueue deep, or no
	// worker freed up within SubmitTimeout / the context deadline. It is
	// the caller's backpressure signal — shed load or retry later.
	ErrOverloaded = errors.New("twine: pool overloaded")
)

// NewPool builds a serving pool of cfg.Workers instances of mod. The
// first instance is fully instantiated (and optionally initialised via
// cfg.Init); the rest are copied from its snapshot. In ColdStart mode the
// first instance exists only to produce the snapshot: its arena is
// released and the pool's slots are pure concurrency tokens.
func (rt *Runtime) NewPool(mod *Module, cfg PoolConfig) (*Pool, error) {
	if cfg.FreshState && cfg.ColdStart {
		return nil, errors.New("twine: PoolConfig.FreshState and ColdStart are mutually exclusive")
	}
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
		rt:            rt,
		mod:           mod,
		entry:         cfg.Entry,
		hostIO:        cfg.HostIO,
		size:          cfg.Workers,
		maxQueue:      cfg.MaxQueue,
		submitTimeout: cfg.SubmitTimeout,
		fresh:         cfg.FreshState,
		cold:          cfg.ColdStart,
		pinned:        cfg.pinned,
		swapLabel:     cfg.swapLabel,
		free:          make([]*worker, 0, cfg.Workers),
		closed:        make(chan struct{}),
	}
	if !p.cold {
		// Cold pools never enroll: their slots hold no EPC between
		// requests, so there is nothing to swap out.
		p.swap = cfg.swap
	}
	if p.swapLabel == "" {
		p.swapLabel = "swap:pool"
	}
	p.newSys = func(i int) (*wasi.System, error) {
		return rt.Sys.Clone(wasi.CloneOptions{
			Args:   []string{fmt.Sprintf("worker-%d", i)},
			Stdout: stdout,
			Stderr: stderr,
		})
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
	if cfg.Init != "" {
		if _, err := first.Invoke(cfg.Init); err != nil {
			return nil, fmt.Errorf("twine: pool init %q: %w", cfg.Init, err)
		}
	}
	p.snap = first.In.Snapshot()

	if p.cold {
		// The snapshot holds its own copy of the golden state; the
		// template instance's arena is returned to the enclave and the
		// free list degenerates to cfg.Workers concurrency tokens.
		if err := first.Release(); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Workers; i++ {
			p.free = append(p.free, &worker{id: i, idleSince: time.Now()})
		}
		return p, nil
	}

	p.free = append(p.free, p.bind(first, 0))

	// Workers 1..N-1: copy-from-snapshot.
	for i := 1; i < cfg.Workers; i++ {
		sys, err := p.newSys(i)
		if err != nil {
			return nil, err
		}
		w, err := rt.newInstance(mod, sys, p.snap)
		if err != nil {
			return nil, err
		}
		p.free = append(p.free, p.bind(w, i))
	}
	if p.swap != nil {
		// Enroll under the registry-wide resident bound: the group may
		// immediately suspend this pool's (or another pool's) coldest idle
		// workers to get back under MaxResident.
		p.swap.enroll(p, len(p.free))
	}
	return p, nil
}

// bind wraps an instance as a pool worker, recording its identity and
// clean WASI fingerprint.
func (p *Pool) bind(inst *Instance, id int) *worker {
	open, next := inst.Sys.FdFingerprint()
	return &worker{Instance: inst, id: id, fdOpen: open, fdNext: next, idleSince: time.Now()}
}

// sealLabel is the worker's sealing label: stable across its
// suspend/resume cycles, distinct across workers and tenants, so a blob
// sealed for one worker can never rehydrate another.
func (p *Pool) sealLabel(id int) string {
	return fmt.Sprintf("%s:%d", p.swapLabel, id)
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
	s.Quarantined = atomic.LoadInt64(&p.quarantined)
	s.Repaired = atomic.LoadInt64(&p.repaired)
	s.WarmResets = atomic.LoadInt64(&p.warmResets)
	s.ColdStarts = atomic.LoadInt64(&p.coldStarts)
	s.Suspends = atomic.LoadInt64(&p.suspends)
	s.Resumes = atomic.LoadInt64(&p.resumes)
	s.Suspended = atomic.LoadInt64(&p.suspendedNow)
	s.SealBytes = atomic.LoadInt64(&p.sealBytes)
	return s
}

// Latency returns the pool's completed-request latency summary
// (fixed-bucket histogram quantiles; wall time from admission to
// completion, queueing included).
func (p *Pool) Latency() LatencySummary { return p.hist.summary() }

// ResumeLatency returns the swap tier's resume-cost summary: wall time
// from acquiring a suspended worker to it being serve-ready (unseal,
// delta apply, re-instantiation, EPC page-in — and any victim suspension
// the resume had to perform to find headroom).
func (p *Pool) ResumeLatency() LatencySummary { return p.resumeHist.summary() }

// Submit serves one request with no deadline beyond the pool's own
// SubmitTimeout: it binds a free worker (queueing while all are busy,
// subject to admission control), enters the enclave, runs the
// per-request host I/O (if any) and the entry function against args, and
// returns the results. Safe for any number of concurrent callers.
func (p *Pool) Submit(args ...uint64) ([]uint64, error) {
	return p.SubmitCtx(context.Background(), args...)
}

// SubmitCtx is Submit bounded by ctx: a Submit still waiting for a
// worker when ctx's deadline expires fails with an error wrapping
// ErrOverloaded (plain cancellation returns ctx.Err()). The deadline
// covers admission, not guest execution — once a worker is bound the
// request runs to completion, the same containment boundary the enclave
// itself has (an ECALL cannot be interrupted from outside).
func (p *Pool) SubmitCtx(ctx context.Context, args ...uint64) ([]uint64, error) {
	start := time.Now()
	w, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}

	var out []uint64
	var serr error
	if p.cold {
		out, serr = p.serveCold(args)
	} else {
		out, serr = p.serveWarm(w, args)
	}
	p.release(w)
	p.hist.observe(time.Since(start))
	if serr != nil {
		return nil, serr
	}
	atomic.AddInt64(&p.requests, 1)
	return out, nil
}

// serveWarm serves one request on a long-lived worker. In FreshState mode
// the worker is reset to the golden snapshot inside the same serve ECALL
// after a successful invoke — the warm free-list hot path — and its WASI
// state is re-cloned only when the request changed the descriptor-table
// shape. Failures quarantine and repair exactly as in stateful mode.
func (p *Pool) serveWarm(w *worker, args []uint64) ([]uint64, error) {
	var out []uint64
	serr := p.rt.guestECallSys("twine_serve", w.Sys, func() error {
		if p.hostIO != nil {
			if err := p.rt.Enclave.OCall("serve.io", p.hostIO); err != nil {
				return err
			}
		}
		var ierr error
		out, ierr = w.In.Invoke(p.entry, args...)
		if ierr != nil || !p.fresh {
			return ierr
		}
		// Warm reset on the hot path: the worker re-enters the free list
		// already stamped back to the golden snapshot, for one in-place
		// copy inside the ECALL the request already paid — no extra
		// transition, no arena allocation, no re-linking.
		if rerr := w.In.ResetFromSnapshot(p.snap); rerr != nil {
			return fmt.Errorf("twine: warm reset: %w", rerr)
		}
		atomic.AddInt64(&p.warmResets, 1)
		return nil
	})
	if serr != nil {
		if quarantinable(serr) {
			atomic.AddInt64(&p.quarantined, 1)
			p.repair(w)
		}
		return nil, serr
	}
	if p.fresh {
		if open, next := w.Sys.FdFingerprint(); open != w.fdOpen || next != w.fdNext {
			// The request dirtied the descriptor table: per-request
			// isolation requires a fresh WASI clone (cheap — a new fd map
			// over the shared storage; no enclave crossing). On clone
			// failure the worker keeps serving with the dirty table and
			// the next failure path re-clones via repair.
			if sys, err := p.newSys(w.id); err == nil {
				w.Sys = sys
				w.In.SetHostCtx(sys)
				w.fdOpen, w.fdNext = sys.FdFingerprint()
			}
		}
	}
	return out, nil
}

// serveCold serves one request on a fresh instance stamped from the pool
// snapshot and released afterwards — the per-request instantiation
// baseline FreshState is priced against. The acquired slot only bounds
// concurrency; no quarantine is needed because nothing outlives the
// request.
func (p *Pool) serveCold(args []uint64) ([]uint64, error) {
	id := int(atomic.AddInt64(&p.coldSeq, 1))
	sys, err := p.newSys(id)
	if err != nil {
		return nil, err
	}
	cw, err := p.rt.newInstance(p.mod, sys, p.snap)
	if err != nil {
		return nil, err
	}
	defer cw.Release()
	atomic.AddInt64(&p.coldStarts, 1)
	var out []uint64
	serr := p.rt.guestECallSys("twine_serve", cw.Sys, func() error {
		if p.hostIO != nil {
			if err := p.rt.Enclave.OCall("serve.io", p.hostIO); err != nil {
				return err
			}
		}
		var ierr error
		out, ierr = cw.In.Invoke(p.entry, args...)
		return ierr
	})
	if serr != nil {
		return nil, serr
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
		return p.postAcquire(w)
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

	var expire <-chan time.Time
	if p.submitTimeout > 0 {
		t := time.NewTimer(p.submitTimeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case w := <-wtr.ch:
		return p.postAcquire(w)
	case <-expire:
		p.abandon(wtr)
		p.mu.Lock()
		p.timedOut++
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: no worker within %v", ErrOverloaded, p.submitTimeout)
	case <-ctx.Done():
		p.abandon(wtr)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			p.mu.Lock()
			p.timedOut++
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %w", ErrOverloaded, ctx.Err())
		}
		return nil, ctx.Err()
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
// rehydrated — unsealed, delta-applied, re-instantiated — before the
// caller sees it, so suspension is invisible to Submit beyond latency.
func (p *Pool) postAcquire(w *worker) (*worker, error) {
	select {
	case <-p.closed:
		p.release(w)
		return nil, ErrPoolClosed
	default:
	}
	if !p.cold && w.Instance == nil {
		if err := p.resumeWorker(w); err != nil {
			// The worker keeps its sealed state; the next acquisition
			// retries the resume.
			p.release(w)
			return nil, fmt.Errorf("twine: resume worker %d: %w", w.id, err)
		}
	}
	return w, nil
}

// abandon removes a waiter that gave up (timeout, cancellation, close).
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
// what makes wakeup order arrival order), the free list otherwise.
func (p *Pool) release(w *worker) {
	p.mu.Lock()
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

// quarantinable classifies a request failure (PR 6). A guest trap or an
// unclassified host error aborted the request at an arbitrary point: the
// worker's memory may hold a half-applied mutation, so it must be
// repaired before serving again. Two classes are exempt: a destroyed
// enclave (sgx.ErrDestroyed — every worker is dead and there is nothing
// to reset them into), and a transient host fault that escaped the WASI
// boundary's bounded retry (chaos.IsTransient — the fault was outside
// the enclave; by the transient contract the guest-visible operation
// never happened, so the worker's state is the pre-request state).
func quarantinable(err error) bool {
	return !errors.Is(err, sgx.ErrDestroyed) && !chaos.IsTransient(err)
}

// repair rebuilds a quarantined worker in place: guest memory, globals
// and table are reset to the pool snapshot inside an ECALL (the reset
// mutates in-enclave state, so it is accounted like any enclave entry)
// and the WASI system is re-cloned, discarding descriptor state the
// failed request may have dirtied. On failure the worker is returned to
// service unrepaired — never leaking free-list capacity — and the next
// failure retries.
func (p *Pool) repair(w *worker) {
	sys, err := p.newSys(w.id)
	if err != nil {
		return
	}
	if err := p.rt.Enclave.ECall("twine_repair", func() error {
		return w.In.ResetFromSnapshot(p.snap)
	}); err != nil {
		return
	}
	w.Sys = sys
	w.In.SetHostCtx(sys)
	w.fdOpen, w.fdNext = sys.FdFingerprint()
	atomic.AddInt64(&p.repaired, 1)
}

// suspendWorker swaps a warm worker out of the EPC (PR 9): its state is
// encoded as a delta against the golden snapshot, sealed under the
// worker's label inside one twine_suspend ECALL, and its arena is
// released — EPC residency for the worker drops to exactly zero. The
// caller must hold the worker exclusively (stolen from the free list or
// never published). WASI descriptor state does not survive: suspension
// has repair semantics, the resumed worker gets a fresh clone — the same
// contract FreshState serving already imposes per request, and the
// reason victim selection only considers idle workers.
func (p *Pool) suspendWorker(w *worker) error {
	label := p.sealLabel(w.id)
	var blob []byte
	err := p.rt.Enclave.ECall("twine_suspend", func() error {
		delta, derr := w.In.SnapshotDelta(p.snap)
		if derr != nil {
			return derr
		}
		var serr error
		blob, serr = p.rt.Enclave.Seal(label, delta)
		return serr
	})
	if err != nil {
		return err
	}
	if err := w.Instance.Release(); err != nil {
		return err
	}
	w.Instance = nil
	w.sealed = blob
	atomic.AddInt64(&p.suspends, 1)
	atomic.AddInt64(&p.suspendedNow, 1)
	atomic.AddInt64(&p.sealBytes, int64(len(blob)))
	return nil
}

// resumeWorker swaps a suspended worker back in: unseal, apply the delta
// to the golden snapshot, re-instantiate, and page the restored memory
// into the EPC — all inside one twine_resume ECALL, so a resumed
// worker's next invocation faults exactly like one that never left
// (ELDU semantics: swap-in writes the pages, so they are resident and
// referenced). Before allocating, the swap group is asked for headroom,
// which may synchronously suspend victims elsewhere; if the arena still
// does not fit (EPC headroom is policy, enclave heap is physics), one
// more victim is evicted per retry until the group runs out of victims.
func (p *Pool) resumeWorker(w *worker) (err error) {
	start := time.Now()
	if p.swap != nil {
		// Reserve the residency slot up front (suspending victims as
		// needed); a failed resume hands it back.
		p.swap.reserve()
		defer func() {
			if err != nil {
				p.swap.unreserve()
			}
		}()
	}
	sys, err := p.newSys(w.id)
	if err != nil {
		return err
	}
	label := p.sealLabel(w.id)
	var inst *Instance
	for {
		err = p.rt.Enclave.ECall("twine_resume", func() error {
			delta, derr := p.rt.Enclave.Unseal(label, w.sealed)
			if derr != nil {
				return derr
			}
			snap, aerr := wasm.ApplySnapshotDelta(p.snap, delta)
			if aerr != nil {
				return aerr
			}
			var ierr error
			inst, ierr = p.rt.instantiate(p.mod, sys, snap)
			if ierr != nil {
				return ierr
			}
			if n := int64(snap.MemBytes()); n > 0 {
				_ = inst.mem.Touch(inst.arena, n)
			}
			return nil
		})
		if err == nil {
			break
		}
		if p.swap == nil || !errors.Is(err, sgx.ErrOutOfMemory) {
			return err
		}
		if !p.swap.evictOne() {
			return err
		}
	}
	w.Instance = inst
	w.sealed = nil
	w.fdOpen, w.fdNext = sys.FdFingerprint()
	atomic.AddInt64(&p.resumes, 1)
	atomic.AddInt64(&p.suspendedNow, -1)
	p.resumeHist.observe(time.Since(start))
	return nil
}

// victimCandidates snapshots this pool's idle, resident, stealable
// workers for the swap group's victim selection, with their working-set
// stats. Pinned and cold pools, closed pools, suspended workers and
// workers idle for less than minIdle are excluded.
func (p *Pool) victimCandidates(minIdle time.Duration, now time.Time) []swapVictim {
	if p.pinned || p.cold {
		return nil
	}
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
		if now.Sub(w.idleSince) < minIdle {
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
// acquire got there first — victim selection then moves on.
func (p *Pool) stealWorker(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
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
// The runtime and its enclave stay alive (they may serve other pools);
// destroying the enclave is the runtime owner's call.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closedFlag = true
		p.mu.Unlock()
		close(p.closed)
	})
	return nil
}
