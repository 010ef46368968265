package sgx

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Switchless OCALLs (the follow-up paper's transition-killing mechanism).
//
// A classic OCALL pays two enclave crossings (§III-A: up to 13,100 cycles
// each way). A switchless OCALL instead writes a request into a shared ring
// buffer that an *untrusted worker thread* drains: the enclave thread never
// leaves the enclave, it only pays a small enqueue cost and then waits for
// the worker's response. The cost model is:
//
//	classic OCALL:    2 × TransitionCost            (≈ 3.4 µs on the testbed)
//	switchless OCALL: EnqueueCost + handshake       (≪ TransitionCost)
//	cold worker:      WakeupCost + one classic OCALL (the SDK's fallback)
//
// The worker is in one of three states, and the state is what the next
// request pays for:
//
//	polling   modelled EnqueueCost; in wall clock the hand-off alone
//	blocked   modelled EnqueueCost; in wall clock the hand-off plus a Go
//	          scheduler wake of the worker, which the model has no term for
//	parked    modelled WakeupCost + one classic OCALL, and that is what is
//	          burned: the worker goroutine has exited and is re-spawned
//
// The rule (ISSUE 19): a ride on a ring that is being used costs the same
// whatever the enclave thread did since the last one; only a ring that went
// a whole WorkerIdle without a request pays again, and it pays exactly the
// modelled cold-worker cost. The worker keeps it by polling through the gaps
// it observes between requests (see worker), so a ring under traffic is
// found polling; the blocked state is where a sparse ring waits out
// WorkerIdle without burning a processor. Measured figures for each state
// are in BENCHMARKS.md, "The cost of a boundary ride".
//
// Fidelity invariants, guarded by internal/core's differential tests:
//
//   - every request either rides the ring (SwitchlessCalls) or becomes a
//     real OCall (counted in Stats.OCalls, flagged in FallbackOCalls), so
//     OCalls_off == OCalls_on + SwitchlessCalls_on;
//   - the protocol is synchronous (the caller blocks until its request is
//     served), so observable side-effect ordering is identical to the
//     two-transition path.

// SwitchlessConfig tunes the ring. The zero value is not useful; start from
// DefaultSwitchlessConfig.
type SwitchlessConfig struct {
	// Slots is the ring capacity. A request that finds the ring full falls
	// back to a classic OCall.
	Slots int
	// MaxPayload is the largest request payload (in bytes) eligible for the
	// ring. Larger transfers take the classic path: marshalling them
	// through the shared buffer would cost more than the crossing saves.
	MaxPayload int
	// EnqueueCost is the CPU burned inside the enclave to stage a request
	// in the shared ring (calibrated ≪ TransitionCost).
	EnqueueCost time.Duration
	// WakeupCost is the CPU burned signalling a parked worker back to its
	// polling loop.
	WakeupCost time.Duration
	// WorkerIdle is how long the worker stays blocked on an empty ring,
	// after its poll window ran out, before it parks (exits). Blocked or
	// parked it consumes no CPU; the first request after a park pays
	// WakeupCost and falls back, exactly like the SGX SDK when no worker is
	// available.
	WorkerIdle time.Duration
}

// DefaultSwitchlessConfig derives ring costs from the enclave's transition
// cost: enqueueing is an order of magnitude cheaper than one crossing, and
// waking a parked worker costs about half a crossing (IPI + scheduler).
func DefaultSwitchlessConfig(cfg Config) SwitchlessConfig {
	return SwitchlessConfig{
		Slots:       8,
		MaxPayload:  32 << 10,
		EnqueueCost: cfg.TransitionCost / 8,
		WakeupCost:  cfg.TransitionCost / 2,
		WorkerIdle:  50 * time.Millisecond,
	}
}

// slreq is one ring slot: a named host-call closure plus the response
// channel the enclave thread blocks on.
type slreq struct {
	fn    func() error
	done  chan error
	panic any
}

var slreqPool = sync.Pool{
	New: func() any { return &slreq{done: make(chan error, 1)} },
}

// SwitchlessRing is the shared request/response ring between an enclave
// and its untrusted worker goroutine. Any number of enclave threads may
// enqueue concurrently (the TCS pool bounds them): requests are admitted
// under the ring lock and served FIFO, so contending enqueuers are
// ordered fairly by arrival, and a request admitted to the ring is always
// served — Destroy retires the worker with a poison request queued
// *behind* every admitted request, so none is lost. The counters are
// atomic and read by Enclave.Stats.
type SwitchlessRing struct {
	e   *Enclave
	cfg SwitchlessConfig

	mu      sync.Mutex
	queue   chan *slreq
	running bool // worker goroutine alive: polling or blocked, not parked
	stopped bool

	// gap is an EWMA of the idle time the worker saw before each request it
	// served, from which it sizes its poll window. Written by the worker only.
	gap time.Duration

	// calls counts requests served through the ring, fallbacks those that
	// became classic OCalls (ring full, worker parked, payload above
	// MaxPayload; each is also counted in Stats.OCalls) and wakeups the
	// requests that found the worker parked and signalled it awake.
	calls, fallbacks, wakeups atomic.Int64
}

// EnableSwitchless attaches a switchless ring to the enclave and returns
// it. The worker is spawned lazily on first use and parks itself after
// WorkerIdle of inactivity, so an idle ring holds no goroutine. Enabling is
// idempotent; the existing ring is returned if one is already attached.
func (e *Enclave) EnableSwitchless(cfg SwitchlessConfig) *SwitchlessRing {
	if e.ring != nil {
		return e.ring
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 32 << 10
	}
	if cfg.WorkerIdle <= 0 {
		cfg.WorkerIdle = 50 * time.Millisecond
	}
	e.ring = &SwitchlessRing{e: e, cfg: cfg, queue: make(chan *slreq, cfg.Slots)}
	return e.ring
}

// Switchless returns the enclave's ring, or nil when switchless calls are
// not enabled.
func (e *Enclave) Switchless() *SwitchlessRing { return e.ring }

// SwitchlessOCall performs a host call through the ring when possible and
// falls back to a classic OCall otherwise. payload is the number of bytes
// the request marshals across the boundary (0 for metadata-only calls);
// requests above SwitchlessConfig.MaxPayload take the classic path. With no
// ring enabled this is exactly OCall, so call sites can route through it
// unconditionally without disturbing the fidelity of the slow path.
func (e *Enclave) SwitchlessOCall(name string, payload int, fn func() error) error {
	if e.ring == nil {
		return e.OCall(name, fn)
	}
	if e.isDestroyed() {
		return ErrDestroyed
	}
	if atomic.LoadInt64(&e.inside) == 0 {
		return fmt.Errorf("%w: %s", ErrOutsideEnclave, name)
	}
	return e.ring.call(name, payload, fn)
}

// call implements the adaptive dispatch: ring when hot and small, classic
// OCall when cold, full, stopped or oversized. Safe for any number of
// concurrent enclave-side callers: admission happens under the ring lock
// (arrival-ordered, so contending enqueuers are served fairly FIFO) and
// each request carries its own response channel.
func (r *SwitchlessRing) call(name string, payload int, fn func() error) error {
	e := r.e
	if payload > r.cfg.MaxPayload {
		r.fallbacks.Add(1)
		return e.OCall(name, fn)
	}

	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return e.OCall(name, fn)
	}
	if !r.running {
		// Worker parked: signal it awake for subsequent requests, but take
		// the slow path for this one (the SDK's cold-worker fallback).
		r.running = true
		r.wakeups.Add(1)
		r.fallbacks.Add(1)
		go r.worker()
		r.mu.Unlock()
		if r.cfg.WakeupCost > 0 {
			burn(r.cfg.WakeupCost)
		}
		return e.OCall(name, fn)
	}
	req := slreqPool.Get().(*slreq)
	req.fn = fn
	req.panic = nil
	select {
	case r.queue <- req:
		r.calls.Add(1)
		r.mu.Unlock()
	default:
		// Ring full: classic OCall.
		r.fallbacks.Add(1)
		r.mu.Unlock()
		req.fn = nil
		slreqPool.Put(req)
		return e.OCall(name, fn)
	}

	if r.cfg.EnqueueCost > 0 {
		burn(r.cfg.EnqueueCost)
	}
	// Spin for the response first — the hardware mechanism busy-polls the
	// shared slot, and parking on the channel costs a scheduler round
	// trip that can exceed the transition cost we are saving. Gosched
	// keeps the worker runnable on single-CPU hosts.
	var err error
	received := false
	for spins := 0; spins < callerSpins; spins++ {
		select {
		case err = <-req.done:
			received = true
		default:
			runtime.Gosched()
			continue
		}
		break
	}
	if !received {
		err = <-req.done
	}
	pan := req.panic
	req.fn = nil
	req.panic = nil
	slreqPool.Put(req)
	if pan != nil {
		// Preserve OCall semantics: a panicking host closure unwinds the
		// enclave thread, not the worker.
		panic(pan)
	}
	return err
}

// Both sides of the ring busy-poll before they block, as the hardware
// mechanism does on shared memory, yielding the processor on every miss so
// single-P and loaded hosts make progress. The caller spins only while its
// request is being served, time it cannot use anyway, so callerSpins is
// simply large. The worker polls while the enclave thread computes, so its
// window follows what it observes (pollWindow), never less than pollFloor;
// once the observed gap passes pollCeiling polling would not catch the next
// request anyway, and a sparse ring must not burn a processor.
const (
	callerSpins = 4096
	pollFloor   = 10 * time.Microsecond
	pollCeiling = 400 * time.Microsecond
)

// pollWindow is how long the worker polls an empty ring before it blocks: a
// multiple of the EWMA of the idle time it saw before each request. The
// multiple covers the spread of real gaps, not just their mean: at 2 the
// worker was found blocked by 8 % of the rides of the benchmark's sql_read
// and serve_tenants, at 8 by 0.3 % and 0.1 %, and a ride that finds it
// blocked costs more than the classic OCALL the ring exists to beat.
func (r *SwitchlessRing) pollWindow() time.Duration {
	if w := 8 * r.gap; w > pollFloor && r.gap <= pollCeiling {
		return w
	}
	return pollFloor
}

// worker is the untrusted thread draining the ring. It polls for
// pollWindow after each request, then blocks on the queue, and parks
// (exits) once the ring stayed empty for WorkerIdle; the next request
// re-spawns it through the wakeup path.
func (r *SwitchlessRing) worker() {
	var idle *time.Timer
	defer func() {
		if idle != nil {
			idle.Stop()
		}
	}()
	idleSince := time.Now()
	// handle serves one dequeued request and restarts the idle clock; it
	// reports false for the poison request, after which the worker is gone.
	handle := func(req *slreq) bool {
		if req.fn == nil { // poison: the ring was stopped
			r.mu.Lock()
			r.running = false
			r.mu.Unlock()
			return false
		}
		// Only this goroutine writes gap, and it does so before the response
		// is sent, so whoever receives that response may read it.
		r.gap += (time.Since(idleSince) - r.gap) / 4
		r.serve(req)
		idleSince = time.Now()
		return true
	}
	for {
		// Polling: drain without timers or channel parking.
		select {
		case req := <-r.queue:
			if !handle(req) {
				return
			}
			continue
		default:
		}
		if time.Since(idleSince) < r.pollWindow() {
			runtime.Gosched()
			continue
		}
		// Blocked: arm the park timer and wait on the queue.
		if idle == nil {
			idle = time.NewTimer(r.cfg.WorkerIdle)
		} else {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(r.cfg.WorkerIdle)
		}
		select {
		case req := <-r.queue:
			if !handle(req) {
				return
			}
		case <-idle.C:
			r.mu.Lock()
			if len(r.queue) == 0 {
				r.running = false
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()
		}
	}
}

// serve runs one request outside the enclave and hands the result back.
// Panics are captured and re-raised on the enclave thread.
func (r *SwitchlessRing) serve(req *slreq) {
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				req.panic = p
			}
		}()
		err = req.fn()
	}()
	req.done <- err
}

// stop marks the ring unusable and retires the worker with a poison
// request. Admission is serialised with stopping under the ring lock, so
// every admitted request sits ahead of the poison in the FIFO queue and
// is served before the worker exits — an enqueuer racing Destroy either
// loses admission (and falls back to a classic OCall, which reports
// ErrDestroyed) or has its response delivered; no enqueuer is left
// blocked on a response that will never come. A worker that already
// parked simply never restarts.
func (r *SwitchlessRing) stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	alreadyStopped := r.stopped
	wasRunning := r.running
	r.stopped = true
	r.mu.Unlock()
	if alreadyStopped || !wasRunning {
		return
	}
	// Blocking send: the queue may be full of admitted requests, which
	// the live worker is draining. Bounded by Slots serves. If the worker
	// parked between the check above and this send, the poison simply
	// stays queued — the stopped flag already prevents any respawn.
	r.queue <- &slreq{}
}
