package sgx

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Thread control structures (TCS).
//
// A hardware enclave exposes a fixed number of TCS pages, each of which
// admits exactly one logical thread at a time: an ECALL binds a TCS on
// entry and releases it when the call returns. OCALLs do NOT release the
// TCS — the outstanding enclave frame keeps it reserved so the thread can
// re-enter through ORET, which is why the SGX SDK sizes its thread pool to
// the TCS count. When every TCS is busy a new ECALL blocks until one
// frees up (the SDK's sgx_ecall behaviour with SGX_ERROR_OUT_OF_TCS
// retries).
//
// The reproduction models exactly that: Config.TCSNum bounds the number
// of concurrently executing ECALLs; excess callers park on the pool and
// are admitted FIFO-ish as slots free. Stats counts how many ECALLs had
// to wait (TCSWaits) and the high-water mark of simultaneously busy TCS
// (TCSMaxBusy), the two numbers a capacity planner needs.

// DefaultTCSNum is the TCS count of enclaves whose Config does not set
// one — the follow-up paper's multi-threaded runtime configuration.
const DefaultTCSNum = 8

// tcsPool is the bounded entry gate of one enclave: a semaphore over the
// TCS indices plus, per TCS, the identity of the goroutine bound to it.
// The owner words are what rejects re-entry on the same logical thread
// (TWINE exposes a single entry point and does not re-enter, §IV-C) while
// independent goroutines enter freely through their own TCS.
type tcsPool struct {
	free   chan int         // indices of unbound TCS: receive = acquire, send = release
	owners []atomic.Uintptr // owners[i] is the gtoken bound to TCS i, 0 when free

	busy    int64 // currently bound TCS (atomic)
	maxBusy int64 // high-water mark (atomic)
	waits   int64 // ECALLs that found every TCS busy (atomic)
}

func newTCSPool(n int) *tcsPool {
	if n <= 0 {
		n = DefaultTCSNum
	}
	p := &tcsPool{free: make(chan int, n), owners: make([]atomic.Uintptr, n)}
	for i := 0; i < n; i++ {
		p.free <- i
	}
	return p
}

// holds reports whether the goroutine identified by tok is bound to a
// TCS. A goroutine only looks for its own token, which only it stores
// and clears, so the scan needs no lock; ECall runs it before acquire so
// a nested call on a saturated pool is rejected, not parked behind itself.
func (p *tcsPool) holds(tok uintptr) bool {
	for i := range p.owners {
		if p.owners[i].Load() == tok {
			return true
		}
	}
	return false
}

// acquire binds a TCS to tok and returns its index, blocking while all
// are busy. destroyed is closed when the enclave is torn down so parked
// callers fail with ErrDestroyed instead of waiting forever; a caller
// whose ctx is done first fails with ctx.Err(), so the caller's deadline
// bounds the wait and a saturated enclave surfaces as backpressure
// instead of unbounded latency.
func (p *tcsPool) acquire(ctx context.Context, tok uintptr, destroyed <-chan struct{}) (int, error) {
	var slot int
	select {
	case slot = <-p.free:
	default:
		atomic.AddInt64(&p.waits, 1)
		select {
		case slot = <-p.free:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-destroyed:
			return 0, ErrDestroyed
		}
	}
	p.owners[slot].Store(tok)
	busy := atomic.AddInt64(&p.busy, 1)
	for {
		max := atomic.LoadInt64(&p.maxBusy)
		if busy <= max || atomic.CompareAndSwapInt64(&p.maxBusy, max, busy) {
			break
		}
	}
	return slot, nil
}

func (p *tcsPool) release(slot int) {
	atomic.AddInt64(&p.busy, -1)
	p.owners[slot].Store(0)
	p.free <- slot
}

// drain claims every TCS, waiting for in-flight ECALLs to exit. Used by
// Destroy so memory is never scrubbed under a running enclave thread.
// The slots are deliberately not released: the enclave is dead.
func (p *tcsPool) drain() {
	for range p.owners {
		<-p.free
	}
}

// Goroutine identity: the gate needs a word that differs between any two
// goroutines inside the enclave at the same time, and is never 0 (a free
// TCS). gtoken supplies it. On amd64 and arm64 it is the address of the
// running g, read by a three-instruction stub (gtoken_*.s): a live g is
// unique and never moves, and a token is compared only while its
// goroutine is inside an ECALL, so a recycled g cannot alias. No runtime.g
// field offset is involved, so the stub does not track Go versions.
//
// stackToken is gtoken on every other GOARCH: the goroutine id parsed from
// the first line of a stack dump ("goroutine N [..."). runtime.Stack walks
// and symbolises every frame although only that line fits the buffer,
// ~10 µs at serving depth, three times the modelled crossing.
func stackToken() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for i := len("goroutine "); i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
