package wasi

import (
	"sync/atomic"
	"time"

	"twine/internal/chaos"
)

// Bounded retry at the WASI/host boundary (PR 6). The untrusted host can
// fail a call transiently — a stalled worker thread, an EINTR-like
// condition — without the guest-visible operation ever happening. Such
// failures are marked chaos.ErrTransient (by the fault harness, or by a
// host FS that can make the same no-side-effect guarantee), and only
// those are retried: a transient fault models a call that was never
// delivered, so re-issuing it cannot double-apply a side effect.
// Permanent errors pass through on the first attempt, untouched.

// RetryPolicy bounds transient-fault recovery at the host boundary. The
// zero value disables retries (every error surfaces immediately, the
// historical behaviour).
type RetryPolicy struct {
	// Max is the retry budget per boundary call: a call may cross at most
	// 1+Max times before its transient error surfaces to the guest.
	Max int
	// Backoff is slept before the first retry and doubles on each further
	// one (0 = retry immediately).
	Backoff time.Duration
}

// RetryStats counts boundary-retry activity. It belongs to the host
// backend, which every System cloned from a runtime shares (every pool
// worker's WASI system), so the counters aggregate across a whole runtime.
type RetryStats struct {
	// Retries counts re-issued boundary calls.
	Retries int64
	// Recovered counts boundary calls that failed transiently and then
	// succeeded (or failed permanently — either way, produced a
	// non-transient outcome) within the budget.
	Recovered int64
	// Exhausted counts boundary calls still failing transiently after the
	// full budget; their transient error surfaced to the guest.
	Exhausted int64
}

// retryCounters is the atomic backing of RetryStats.
type retryCounters struct {
	retries, recovered, exhausted atomic.Int64
}

func (c *retryCounters) snapshot() RetryStats {
	return RetryStats{
		Retries:   c.retries.Load(),
		Recovered: c.recovered.Load(),
		Exhausted: c.exhausted.Load(),
	}
}

// retry re-issues cross while it fails transiently, within policy. cross
// must perform a full boundary crossing per attempt — each retry is a
// fresh host call and pays fresh transition accounting, exactly like a
// guest issuing the call again.
func (p RetryPolicy) retry(c *retryCounters, cross func() error) error {
	err := cross()
	if p.Max <= 0 || !chaos.IsTransient(err) {
		return err
	}
	backoff := p.Backoff
	for attempt := 0; attempt < p.Max; attempt++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		c.retries.Add(1)
		if err = cross(); !chaos.IsTransient(err) {
			c.recovered.Add(1)
			return err
		}
	}
	c.exhausted.Add(1)
	return err
}
