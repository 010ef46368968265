package sgx

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the SGX enclave page granularity (4 KiB).
const PageSize = 4096

// Mode selects between the SGX hardware cost model and the software
// simulation mode (no memory protection, used by Figure 6's "SW" series).
type Mode int

const (
	// ModeHardware models real SGX: EPC paging and transition costs apply.
	ModeHardware Mode = iota
	// ModeSimulation models SGX "simulation/software mode": enclave
	// semantics are preserved but memory-protection work is skipped.
	ModeSimulation
)

func (m Mode) String() string {
	switch m {
	case ModeHardware:
		return "hardware"
	case ModeSimulation:
		return "simulation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// HeapMode selects the in-enclave allocator strategy (§IV-C of the paper).
type HeapMode int

const (
	// HeapSystem models the SGX SDK allocator: committing fresh pages
	// requires zeroing plus bookkeeping that grows with the committed
	// heap, yielding the above-linear behaviour the paper measured.
	HeapSystem HeapMode = iota
	// HeapPool models a preallocated buffer (SQLITE_ENABLE_MEMSYS3 in the
	// paper): all pages are committed when the enclave starts, so
	// allocation is cheap.
	HeapPool
)

func (m HeapMode) String() string {
	switch m {
	case HeapSystem:
		return "system"
	case HeapPool:
		return "pool"
	default:
		return fmt.Sprintf("HeapMode(%d)", int(m))
	}
}

// Config describes an enclave to create. The zero value is not usable;
// start from DefaultConfig or TestConfig.
type Config struct {
	// Mode selects hardware or simulation cost model.
	Mode Mode
	// EPCSize is the total enclave page cache size in bytes.
	EPCSize int64
	// EPCUsable is the fraction of the EPC available to enclave pages
	// (the rest is consumed by SGX metadata). The paper's testbed: 128 MiB
	// EPC, 93 MiB usable.
	EPCUsable int64
	// HeapSize is the size of the enclave heap in bytes.
	HeapSize int64
	// ReservedSize is the size of the reserved-memory region used to load
	// executable artifacts (the Wasm AoT code) at run time (§IV-B).
	ReservedSize int64
	// TransitionCost is the one-way cost of crossing the enclave boundary.
	// An ECALL or OCALL pays it twice (exit + re-enter).
	TransitionCost time.Duration
	// TCSNum is the number of thread control structures: the bound on
	// concurrently executing ECALLs. Extra callers block until a TCS
	// frees (counted in Stats.TCSWaits). 0 selects DefaultTCSNum. A TCS
	// stays bound across the OCALLs of its ECALL, exactly as the SGX SDK
	// reserves the TCS for the outstanding enclave frame.
	TCSNum int
	// HeapMode selects the allocator strategy.
	HeapMode HeapMode
	// Debug marks the enclave as debuggable; it is reflected in reports
	// so that attestation can reject debug enclaves.
	Debug bool
}

// DefaultConfig mirrors the paper's testbed: 128 MiB EPC with 93 MiB
// usable, and a transition cost calibrated from the paper's 13,100 cycles
// at 3.8 GHz (~3.4 µs per round trip, so ~1.7 µs one way).
func DefaultConfig() Config {
	return Config{
		Mode:           ModeHardware,
		EPCSize:        128 << 20,
		EPCUsable:      93 << 20,
		HeapSize:       256 << 20,
		ReservedSize:   16 << 20,
		TransitionCost: 1700 * time.Nanosecond,
		HeapMode:       HeapPool,
	}
}

// TestConfig returns a small, fast configuration for unit tests: a tiny EPC
// so paging is easy to provoke, and free transitions so tests stay quick.
func TestConfig() Config {
	return Config{
		Mode:           ModeHardware,
		EPCSize:        1 << 20,
		EPCUsable:      768 << 10,
		HeapSize:       4 << 20,
		ReservedSize:   1 << 20,
		TransitionCost: 0,
		HeapMode:       HeapPool,
	}
}

// Package errors.
var (
	ErrDestroyed      = errors.New("sgx: enclave destroyed")
	ErrOutsideEnclave = errors.New("sgx: OCALL issued from outside the enclave")
	ErrInsideEnclave  = errors.New("sgx: ECALL issued from inside the enclave")
	ErrOutOfMemory    = errors.New("sgx: enclave out of memory")
	ErrBadFree        = errors.New("sgx: invalid free")
	ErrBounds         = errors.New("sgx: memory access out of enclave bounds")
	ErrPerm           = errors.New("sgx: permission denied on reserved memory")
	ErrBadQuote       = errors.New("sgx: quote verification failed")
)

// Stats reports enclave activity counters.
//
// OCalls counts real two-transition boundary crossings, including those
// taken as switchless fallbacks; SwitchlessCalls counts requests served by
// the ring without a crossing. Every request is exactly one of the two, so
// OCalls(switchless off) == OCalls + SwitchlessCalls (switchless on) — the
// conservation law internal/core's differential tests enforce. A full ring
// or a parked worker only moves a request from the ring column to the
// fallback column, never out of both.
//
// All counters are maintained with atomic operations, so Stats stays
// coherent while concurrent ECALLs execute on the TCS pool.
type Stats struct {
	ECalls     int64
	OCalls     int64
	PageFaults int64
	Evictions  int64
	// SwitchlessCalls is the number of OCALLs served through the
	// switchless ring (no enclave transition).
	SwitchlessCalls int64
	// FallbackOCalls is the number of would-be switchless calls that took
	// the classic path (ring full, worker parked, oversized payload). They
	// are included in OCalls.
	FallbackOCalls int64
	// WorkerWakeups counts signals to a parked switchless worker.
	WorkerWakeups int64
	// TCSWaits counts ECALLs that found every TCS busy and had to park
	// until a slot freed — the enclave's saturation signal.
	TCSWaits int64
	// TCSBusy is the number of TCS bound at the instant of the snapshot.
	TCSBusy int64
	// TCSMaxBusy is the high-water mark of simultaneously bound TCS.
	TCSMaxBusy int64
}

// Enclave is a simulated SGX enclave: a measured, isolated memory region
// with explicit entry/exit points. ECalls from distinct goroutines execute
// concurrently, bounded by the TCS pool; ECalls, OCalls and Stats are safe
// for concurrent use. EnableSwitchless and Destroy are lifecycle
// operations: enable the ring before spinning up concurrent callers, and
// Destroy blocks until every in-flight ECALL has drained.
type Enclave struct {
	cfg         Config
	platform    *Platform
	mem         *Memory
	alloc       *Allocator
	reserved    *Reserved
	measurement [32]byte
	sealRoot    [32]byte

	// sealKeys caches per-label derived sealing keys. Key derivation is
	// pure (platform, measurement, label) — the cache can never go stale —
	// so the HKDF runs once per label instead of once per Seal/Unseal.
	sealMu   sync.RWMutex
	sealKeys map[string][32]byte

	tcs *tcsPool // bounds concurrent ECALLs and rejects same-goroutine re-entry

	inside    int64 // atomic: logical threads currently inside the enclave
	destroyed int32 // atomic flag; destroyCh is closed alongside it
	destroyCh chan struct{}

	destroyOnce sync.Once

	ecalls int64 // atomic
	ocalls int64 // atomic

	ring *SwitchlessRing // nil until EnableSwitchless
}

// NewEnclave creates and initialises an enclave on platform p. The code
// argument is the enclave binary; it determines the measurement
// (MRENCLAVE) exactly as SGX hashes enclave contents at creation.
func (p *Platform) NewEnclave(cfg Config, code []byte) (*Enclave, error) {
	if cfg.EPCUsable <= 0 || cfg.EPCUsable > cfg.EPCSize {
		return nil, fmt.Errorf("sgx: invalid EPC configuration (size=%d usable=%d)", cfg.EPCSize, cfg.EPCUsable)
	}
	if cfg.HeapSize <= 0 {
		return nil, errors.New("sgx: heap size must be positive")
	}
	e := &Enclave{cfg: cfg, platform: p, destroyCh: make(chan struct{}), sealKeys: make(map[string][32]byte)}
	e.tcs = newTCSPool(cfg.TCSNum)
	e.measurement = measure(cfg, code)
	e.sealRoot = p.deriveSealRoot(e.measurement)
	mem, err := newMemory(cfg)
	if err != nil {
		return nil, err
	}
	e.mem = mem
	// The reserved region claims the bottom of enclave memory; the
	// allocator manages everything above it, so order matters here.
	e.reserved = newReserved(mem, cfg.ReservedSize)
	e.alloc = newAllocator(mem, cfg.HeapMode)
	return e, nil
}

// measure computes the MRENCLAVE-equivalent: a SHA-256 over the enclave
// code and the security-relevant configuration.
func measure(cfg Config, code []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("twine-sgx-measurement-v1"))
	var meta [17]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(cfg.HeapSize))
	binary.LittleEndian.PutUint64(meta[8:], uint64(cfg.ReservedSize))
	if cfg.Debug {
		meta[16] = 1
	}
	h.Write(meta[:])
	h.Write(code)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Measurement returns the enclave's MRENCLAVE-equivalent hash.
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// Config returns the enclave's configuration.
func (e *Enclave) Config() Config { return e.cfg }

// Memory returns the enclave's protected memory.
func (e *Enclave) Memory() *Memory { return e.mem }

// Allocator returns the in-enclave heap allocator.
func (e *Enclave) Allocator() *Allocator { return e.alloc }

// Reserved returns the reserved-memory region used for loading code.
func (e *Enclave) Reserved() *Reserved { return e.reserved }

// Stats returns a coherent copy of the enclave activity counters.
func (e *Enclave) Stats() Stats {
	s := Stats{
		ECalls:     atomic.LoadInt64(&e.ecalls),
		OCalls:     atomic.LoadInt64(&e.ocalls),
		PageFaults: e.mem.Faults(),
		Evictions:  e.mem.Evictions(),
		TCSWaits:   atomic.LoadInt64(&e.tcs.waits),
		TCSBusy:    atomic.LoadInt64(&e.tcs.busy),
		TCSMaxBusy: atomic.LoadInt64(&e.tcs.maxBusy),
	}
	if e.ring != nil {
		s.SwitchlessCalls = e.ring.calls.Load()
		s.FallbackOCalls = e.ring.fallbacks.Load()
		s.WorkerWakeups = e.ring.wakeups.Load()
	}
	return s
}

// TCSCount returns the size of the enclave's TCS pool.
func (e *Enclave) TCSCount() int { return len(e.tcs.owners) }

// Inside reports whether any logical thread is currently executing inside
// the enclave. (With concurrent ECALLs this is a global property, not a
// per-goroutine one; the per-goroutine re-entry check lives in ECall.)
func (e *Enclave) Inside() bool { return atomic.LoadInt64(&e.inside) > 0 }

func (e *Enclave) isDestroyed() bool { return atomic.LoadInt32(&e.destroyed) != 0 }

// ECall enters the enclave, runs fn inside it, and exits. It pays the
// transition cost in both directions and is the only way in, mirroring
// SGX's ECALL mechanism. ECalls may not be nested on one goroutine (TWINE
// enclaves expose a single entry and do not re-enter, §IV-C), but ECalls
// from distinct goroutines run concurrently, each bound to a TCS; when
// every TCS is busy the call blocks until one frees.
func (e *Enclave) ECall(name string, fn func() error) error {
	return e.ECallCtx(context.Background(), name, fn)
}

// ECallCtx is ECall whose wait for a free TCS ends when ctx is done: a
// caller still parked then gets ctx.Err() and fn never runs. Once
// inside, fn runs to completion.
func (e *Enclave) ECallCtx(ctx context.Context, name string, fn func() error) error {
	if e.isDestroyed() {
		return ErrDestroyed
	}
	tok := gtoken()
	if e.tcs.holds(tok) {
		return fmt.Errorf("%w: %s", ErrInsideEnclave, name)
	}
	slot, err := e.tcs.acquire(ctx, tok, e.destroyCh)
	if err != nil {
		return err
	}
	defer e.tcs.release(slot)
	if e.isDestroyed() {
		// Destroy won the race while we were parked on the TCS pool.
		return ErrDestroyed
	}
	atomic.AddInt64(&e.ecalls, 1)
	e.transition()
	atomic.AddInt64(&e.inside, 1)
	err = fn()
	atomic.AddInt64(&e.inside, -1)
	e.transition()
	return err
}

// OCall exits the enclave, runs fn outside it, and re-enters. It must be
// issued from a goroutine currently executing inside an ECall — that is
// the whole contract: a goroutine that never entered must not call OCall
// (the guard below is a global any-thread-inside check, kept deliberately
// cheap for the hot path, so it catches the no-one-inside misuse but not
// a wrong-goroutine one). It pays the transition cost in both directions;
// the TCS stays bound to the outstanding enclave frame while fn runs
// outside, as on hardware.
func (e *Enclave) OCall(name string, fn func() error) error {
	if e.isDestroyed() {
		return ErrDestroyed
	}
	if atomic.LoadInt64(&e.inside) == 0 {
		return fmt.Errorf("%w: %s", ErrOutsideEnclave, name)
	}
	atomic.AddInt64(&e.ocalls, 1)
	e.transition()
	atomic.AddInt64(&e.inside, -1)
	err := fn()
	atomic.AddInt64(&e.inside, 1)
	e.transition()
	return err
}

// transition burns the configured enclave-crossing cost. The cost is paid
// with a busy spin (real CPU time) rather than a sleep so that it shows up
// in wall-clock measurements the way hardware transitions do.
func (e *Enclave) transition() {
	if e.cfg.TransitionCost <= 0 {
		return
	}
	burn(e.cfg.TransitionCost)
}

// burn busy-waits for approximately d.
func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Destroy terminates the enclave and scrubs its memory. Any later entry
// attempt fails with ErrDestroyed, callers parked on the TCS pool are
// woken with ErrDestroyed, and in-flight ECALLs see their next boundary
// crossing fail. Destroy blocks until every in-flight ECALL has drained,
// so memory is never scrubbed under a running enclave thread. It must not
// be called from inside an ECALL.
func (e *Enclave) Destroy() {
	e.destroyOnce.Do(func() {
		atomic.StoreInt32(&e.destroyed, 1)
		close(e.destroyCh)
		// Retire the switchless worker first: queued requests are still
		// served (FIFO ahead of the poison), so enclave threads blocked on
		// a ring response are released before we wait for them to exit.
		e.ring.stop()
		e.tcs.drain()
		e.mem.scrub()
	})
}
