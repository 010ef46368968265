package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The instance-granularity swap tier (PR 9). The page-level clock sweep
// (internal/sgx) reclaims EPC one 4 KiB page at a time and pays eviction
// cost for pages that will be faulted straight back; when the resident
// *instances* outnumber what the EPC can hold, the right unit of
// reclamation is a whole idle instance. A swapGroup is the registry-wide
// controller: it counts resident warm workers across every enrolled
// pool, and when the count exceeds MaxResident it suspends victims:
// release the worker's arena. An idle registry worker is its tenant's
// golden snapshot (every request ends with a reset), so there is no state
// to keep and nothing leaves the enclave. Suspension is invisible to Submit: acquiring a
// suspended worker transparently resumes it (Pool.resumeWorker).
//
// Victim selection is working-set-weighted, coldest-largest first: fewest
// referenced pages (the clock has swept them — the instance is not in the
// current working set), then most resident pages (reclaims the most EPC),
// then longest idle (LRU tiebreak, which is what keeps a hot set resident
// under a skewed tenant mix). Only idle workers are eligible — a worker
// serving a request is never quiesced under it.
type swapGroup struct {
	// max is the resident warm-worker bound.
	max int

	// mu serialises enrollment and reclamation. resident is atomic so a
	// worker leaving a closed pool can give its slot back from any path,
	// including one that runs under mu.
	mu       sync.Mutex
	resident atomic.Int64 // warm workers currently holding an arena (+ reservations)
	pools    []*Pool
}

// swapVictim is one idle worker as seen by victim selection.
type swapVictim struct {
	p          *Pool
	w          *worker
	resident   int
	referenced int
	idleSince  time.Time
}

// enroll adds a pool's warm workers to the group's residency accounting
// and immediately enforces the bound — registering tenant N+1 under
// pressure suspends the coldest idle workers, wherever they live.
func (sg *swapGroup) enroll(p *Pool, workers int) {
	sg.mu.Lock()
	sg.pools = append(sg.pools, p)
	sg.resident.Add(int64(workers))
	sg.shrinkLocked(context.Background(), sg.max)
	sg.mu.Unlock()
}

// leave drops a closed pool from victim selection. Its resident workers
// give their slots back one by one as their arenas are released.
func (sg *swapGroup) leave(p *Pool) {
	sg.mu.Lock()
	for i, q := range sg.pools {
		if q == p {
			sg.pools = append(sg.pools[:i], sg.pools[i+1:]...)
			break
		}
	}
	sg.mu.Unlock()
}

// reserve claims one residency slot for a resume, suspending victims
// until the incoming worker fits under the bound. When no victim is idle
// the group over-commits — admission pressure then falls through to the
// page-level clock sweep, and the next release/idle cycle re-balances.
func (sg *swapGroup) reserve(ctx context.Context) {
	sg.mu.Lock()
	sg.shrinkLocked(ctx, sg.max-1)
	sg.resident.Add(1)
	sg.mu.Unlock()
}

// unreserve hands a residency slot back (a resume failed, or a worker of
// a closed pool released its arena).
func (sg *swapGroup) unreserve() {
	sg.resident.Add(-1)
}

// shrinkLocked suspends coldest-largest idle victims until at most
// target workers are resident or no victim remains. Called with sg.mu
// held; pool locks and the suspend ECALLs nest inside, serialising
// reclamation — the same discipline a kernel reclaim path has, and what
// keeps two concurrent resumes from suspending twice as much as needed.
// A victim's suspend waits for a TCS under ctx, the deadline of the
// request whose resume asked for headroom; since sg.mu is held across
// that wait, a second concurrent resume can wait up to the first one's
// deadline before it gets to reclaim.
func (sg *swapGroup) shrinkLocked(ctx context.Context, target int) {
	for sg.resident.Load() > int64(target) {
		if !sg.suspendOneLocked(ctx) {
			return
		}
	}
}

// evictOne suspends a single victim regardless of the bound — the
// allocation-pressure path: a resume that cannot find enclave heap for
// an arena frees one instance's worth and retries.
func (sg *swapGroup) evictOne(ctx context.Context) bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.suspendOneLocked(ctx)
}

// victimLess orders candidates best-victim-first: fewest referenced
// pages (out of the clock's working set), then most resident pages
// (largest EPC reclaim), then longest idle (LRU — the tiebreak that
// keeps a hot tenant set resident under a skewed mix).
func victimLess(a, b swapVictim) bool {
	if a.referenced != b.referenced {
		return a.referenced < b.referenced
	}
	if a.resident != b.resident {
		return a.resident > b.resident
	}
	return a.idleSince.Before(b.idleSince)
}

// suspendOneLocked picks and suspends the single best victim: fewest
// referenced pages, then most resident pages, then longest idle. A
// candidate stolen from under us (a concurrent acquire won) or failing
// to suspend (ctx ended its wait for a TCS, say) is put back resident
// and skipped; false means no victim could be suspended.
func (sg *swapGroup) suspendOneLocked(ctx context.Context) bool {
	var cands []swapVictim
	for _, p := range sg.pools {
		cands = append(cands, p.victimCandidates()...)
	}
	sort.Slice(cands, func(i, j int) bool { return victimLess(cands[i], cands[j]) })
	for _, v := range cands {
		if !v.p.stealWorker(v.w) {
			continue
		}
		if err := v.p.suspendWorker(ctx, v.w); err != nil {
			v.p.release(v.w)
			continue
		}
		v.p.release(v.w)
		sg.resident.Add(-1)
		return true
	}
	return false
}
