// Package chaos is the cross-layer fault-injection harness (PR 6) and the
// repository's one fault wrapper. It runs a seeded, deterministic fault
// *plan* that any layer can consult: the untrusted host file system
// (WrapFS), the WASI backend boundary (wasi.HostBackend.Chaos, set through
// core.Config.Chaos) and the switchless ring's drain worker
// (sgx.SwitchlessConfig.DrainChaos).
//
// The design contract is determinism: whether operation i is selected is
// a pure function of (Plan, i). Two runs with the same plan against the
// same operation sequence inject exactly the same faults, so a failure
// found under chaos is replayable from its seed — and a plan that selects
// nothing (the zero Plan) makes every Op call a no-op, which is what the
// fidelity rule relies on: faults off is bit-identical to no harness at
// all.
//
// A selected operation can stall (Plan.Stall — modelling a descheduled
// drain worker or a slow host), fail (Plan.Err), or both. Transient wraps
// errors that model recoverable untrusted-host conditions; the WASI
// boundary's bounded retry (wasi.RetryPolicy) keys off IsTransient.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Plan is a deterministic fault schedule over an operation sequence.
// Selection predicates compose with OR; the zero Plan selects nothing.
type Plan struct {
	// Seed perturbs the EveryK phase and the Prob hash, so distinct seeds
	// fault distinct operations while each seed stays replayable.
	Seed int64
	// At selects operation At (1-based). With Window > 0 the selection
	// extends to the window [At, At+Window) — failing a run of operations
	// rather than a single one, so recovery paths (not just
	// first-failure paths) are exercised.
	At     int64
	Window int64
	// EveryK selects every Kth operation, at a seeded phase within each
	// stride.
	EveryK int64
	// Prob selects each operation independently with this probability.
	// The decision hashes (Seed, op), so it is deterministic per
	// operation and stable under concurrency: which ordinal faults never
	// depends on goroutine interleaving.
	Prob float64
	// Stall is slept on each selected operation before any error is
	// returned — the "slow host" / "descheduled worker" fault.
	Stall time.Duration
	// Err is returned by Op on each selected operation (nil = stall-only
	// plan).
	Err error
}

// Stats counts injector activity. Ops counts every consultation, Faults
// the selected operations that returned an error, Stalls the selected
// operations that slept.
type Stats struct {
	Ops    int64
	Faults int64
	Stalls int64
}

// Injector hands out fault decisions for a Plan. It is safe for any
// number of concurrent callers; a nil *Injector is valid and never
// injects, so call sites need no guard.
type Injector struct {
	plan      Plan
	phase     int64  // seeded EveryK phase
	threshold uint64 // Prob as a 64-bit fixed-point threshold

	ops    int64 // atomic
	faults int64 // atomic
	stalls int64 // atomic
}

// New builds an injector for p.
func New(p Plan) *Injector {
	inj := &Injector{plan: p}
	if p.EveryK > 0 {
		inj.phase = int64(splitmix64(uint64(p.Seed)^0x9e3779b97f4a7c15) % uint64(p.EveryK))
	}
	if p.Prob > 0 {
		if p.Prob >= 1 {
			inj.threshold = ^uint64(0)
		} else {
			inj.threshold = uint64(p.Prob * float64(1<<63) * 2)
		}
	}
	return inj
}

// Plan returns the injector's schedule.
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Selected reports whether operation op (1-based) is faulted — a pure
// function of the plan, usable to precompute the expected fault set.
func (i *Injector) Selected(op int64) bool {
	if i == nil {
		return false
	}
	p := &i.plan
	if p.At > 0 {
		w := p.Window
		if w <= 0 {
			w = 1
		}
		if op >= p.At && op < p.At+w {
			return true
		}
	}
	if p.EveryK > 0 && (op-1)%p.EveryK == i.phase {
		return true
	}
	if i.threshold > 0 && splitmix64(uint64(p.Seed)^uint64(op)*0xbf58476d1ce4e5b9) < i.threshold {
		return true
	}
	return false
}

// Op consumes the next operation ordinal and applies the plan: it stalls
// for Plan.Stall and/or returns Plan.Err when the operation is selected,
// and is a no-op (nil) otherwise. Safe for concurrent use; on a nil
// injector it always returns nil.
func (i *Injector) Op() error {
	if i == nil {
		return nil
	}
	op := atomic.AddInt64(&i.ops, 1)
	if !i.Selected(op) {
		return nil
	}
	if i.plan.Stall > 0 {
		atomic.AddInt64(&i.stalls, 1)
		time.Sleep(i.plan.Stall)
	}
	if i.plan.Err != nil {
		atomic.AddInt64(&i.faults, 1)
		return i.plan.Err
	}
	return nil
}

// Stats returns a coherent copy of the injector counters; zero on nil.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return Stats{
		Ops:    atomic.LoadInt64(&i.ops),
		Faults: atomic.LoadInt64(&i.faults),
		Stalls: atomic.LoadInt64(&i.stalls),
	}
}

// Reset rewinds the operation counter (and stats) so the same plan can
// replay from the start.
func (i *Injector) Reset() {
	if i == nil {
		return
	}
	atomic.StoreInt64(&i.ops, 0)
	atomic.StoreInt64(&i.faults, 0)
	atomic.StoreInt64(&i.stalls, 0)
}

// splitmix64 is the SplitMix64 finaliser: a cheap, high-quality 64-bit
// mix, used so per-operation decisions are deterministic hashes instead
// of stateful RNG draws (which would make the fault set depend on
// concurrency order).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ErrTransient is the marker for recoverable untrusted-host faults: the
// class of failures a bounded retry is allowed to absorb (EINTR-like
// conditions, a momentarily stalled host thread). Permanent errors must
// not wrap it — retrying them only delays the failure.
var ErrTransient = errors.New("chaos: transient host fault")

// Transient wraps err (nil-safe) so IsTransient reports it recoverable.
func Transient(err error) error {
	if err == nil {
		return ErrTransient
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err models a recoverable untrusted-host
// condition.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
