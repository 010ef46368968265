package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Memory is the enclave's protected linear memory. Its layout is:
//
//	[0, reservedSize)              reserved-memory region (code loading)
//	[reservedSize, len(data))      enclave heap
//
// The arena is the residency model's address space far more than a store:
// a guest's linear memory is a reservation of its own (wasm.Memory, also
// outside the Go heap), and the page caches and protected-FS nodes outside
// guest memory are Go values; all of them charge their accesses here
// through Touch, and the bytes the arena holds are the allocator's block
// headers, loaded code and what callers Write. So it is reserved, not
// touched, and an enclave costs the host what it wrote (see "The
// simulator's own cost of an enclave" in doc.go).
//
// Every access must pass through Touch (directly or via the Read/Write
// helpers) so the EPC residency model can charge paging costs. Page
// residency is tracked with a clock (second-chance) policy, an adequate
// stand-in for the SGX driver's EPC reclaim behaviour.
//
// In ModeHardware, loading a page into the EPC and evicting one out both
// pay the cost of AES processing over the 4 KiB page, approximating the
// memory-encryption-engine plus EWB/ELDU work that makes EPC paging
// expensive on real hardware. In ModeSimulation the model is bypassed.
type Memory struct {
	data []byte // private anonymous mapping, unmapped when m is collected

	// written has one bit per page that Write, Zero or Slice handed bytes
	// to: the pages the host backs and scrub must wipe. Guarded by mu;
	// Touch never marks it.
	written []uint64

	// reservedBytes is the size of the reserved-memory region at the
	// bottom of enclave memory; set by newReserved before the allocator
	// is built.
	reservedBytes int64

	// mu serialises the paging state machine (pageState, resident, hand)
	// so concurrent ECALLs can touch memory safely. The TLB fast path in
	// internal/wasm never takes it: a page proven referenced at the
	// current generation is skipped on a single atomic load of gen.
	mu          sync.Mutex
	mode        Mode
	pageState   []uint8 // pageAbsent / pageResident / pageReferenced
	maxResident int
	resident    int
	hand        int

	// gen is the paging generation. It is bumped only when page state can
	// regress — a clock sweep downgrading referenced pages, an eviction, or
	// a scrub — never on faults or reference upgrades. While gen is stable a
	// referenced page therefore stays referenced, so a caller that proved a
	// page referenced at generation g may skip further touches of that page
	// for as long as Gen() == g: those touches would be no-ops. This is what
	// lets the Wasm interpreter keep a software EPC-TLB of hot pages.
	//
	// Written only under mu (with atomic stores); read lock-free with
	// atomic loads, so the EPC-TLB hot path costs one load even while
	// other enclave threads page.
	gen uint64

	faults    int64 // atomic
	evictions int64 // atomic

	block   cipher.Block
	scratch [PageSize]byte // guarded by mu (paging cost cipher buffer)
}

const (
	pageAbsent uint8 = iota
	pageResident
	pageReferenced
)

func newMemory(cfg Config) (*Memory, error) {
	total := cfg.ReservedSize + cfg.HeapSize
	if total%PageSize != 0 {
		return nil, fmt.Errorf("sgx: enclave memory size %d is not page aligned", total)
	}
	data, err := mapArena(int(total))
	if err != nil {
		return nil, fmt.Errorf("sgx: reserve %d bytes of enclave memory: %w", total, err)
	}
	m := &Memory{
		data:        data,
		written:     make([]uint64, (total/PageSize+63)/64),
		mode:        cfg.Mode,
		pageState:   make([]uint8, total/PageSize),
		maxResident: int(cfg.EPCUsable / PageSize),
		gen:         1,
	}
	// Unmapped only once nothing can reach m, so every read after Destroy
	// finds the scrubbed bytes, as it did when the arena was a Go slice.
	runtime.SetFinalizer(m, func(m *Memory) { unmapArena(m.data) })
	if m.maxResident < 2 {
		return nil, fmt.Errorf("sgx: EPC usable size %d too small", cfg.EPCUsable)
	}
	// The paging cost cipher. The key's value is irrelevant (the work is
	// what matters); a fixed key keeps the model deterministic.
	block, err := aes.NewCipher([]byte("twine-epc-paging-cost-key-32by!!"))
	if err != nil {
		return nil, err
	}
	m.block = block
	return m, nil
}

// Size returns the total enclave memory size in bytes.
func (m *Memory) Size() int64 { return int64(len(m.data)) }

// Faults returns the number of EPC page faults so far.
func (m *Memory) Faults() int64 { return atomic.LoadInt64(&m.faults) }

// Evictions returns the number of EPC page evictions so far.
func (m *Memory) Evictions() int64 { return atomic.LoadInt64(&m.evictions) }

// Resident returns the number of currently resident EPC pages.
func (m *Memory) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}

// Gen returns the current paging generation (see the field comment).
func (m *Memory) Gen() uint64 { return atomic.LoadUint64(&m.gen) }

// GenRef returns a stable pointer to the paging generation so hot paths
// can poll it with a single atomic load instead of a call. The word is
// only written under the paging lock; concurrent readers must use atomic
// loads (internal/wasm's EPC-TLB does).
func (m *Memory) GenRef() *uint64 { return &m.gen }

// Referenced reports whether enclave page p currently holds a second
// chance (the clock has not swept it since its last access). Touching a
// referenced page is a no-op; combined with Gen this lets callers prove a
// touch redundant.
func (m *Memory) Referenced(p int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return p >= 0 && p < int64(len(m.pageState)) && m.pageState[p] == pageReferenced
}

// PageState returns the residency state of page p as one of "absent",
// "resident" or "referenced" (a debugging/introspection view).
func (m *Memory) PageState(p int64) string {
	if p < 0 || p >= int64(len(m.pageState)) {
		return "out-of-range"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.pageState[p] {
	case pageReferenced:
		return "referenced"
	case pageResident:
		return "resident"
	default:
		return "absent"
	}
}

// Touch marks the byte range [off, off+n) as accessed, faulting in any
// non-resident pages and paying the associated paging cost. It returns
// ErrBounds if the range falls outside enclave memory. Touch is safe for
// concurrent use; the paging state machine is serialised, mirroring the
// EPC (and its reclaim path) being a shared per-enclave resource on
// hardware.
func (m *Memory) Touch(off, n int64) error {
	if n <= 0 {
		return nil
	}
	if off < 0 || off+n > int64(len(m.data)) {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrBounds, off, off+n, len(m.data))
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	m.mu.Lock()
	for p := first; p <= last; p++ {
		switch m.pageState[p] {
		case pageReferenced:
			// Hot page: nothing to do.
		case pageResident:
			m.pageState[p] = pageReferenced
		default:
			m.fault(int(p))
		}
	}
	m.mu.Unlock()
	return nil
}

// fault brings page p into the EPC, evicting a victim if the EPC is full.
// Called with mu held.
func (m *Memory) fault(p int) {
	atomic.AddInt64(&m.faults, 1)
	if m.resident >= m.maxResident {
		m.evict()
	}
	if m.mode == ModeHardware {
		m.pageWork(p) // ELDU: decrypt + integrity-check the incoming page.
	}
	m.pageState[p] = pageReferenced
	m.resident++
}

// evict selects a victim with the clock algorithm and pays the EWB
// (encrypt + write back) cost for it. Both things the sweep does — the
// referenced→resident downgrade and the eviction itself — can regress
// page state, so the paging generation is bumped here (once per sweep,
// before any state changes). Called with mu held; the bump is an atomic
// store so lock-free TLB readers observe it before any regressed state
// can matter to them.
func (m *Memory) evict() {
	atomic.AddUint64(&m.gen, 1)
	for {
		if m.hand >= len(m.pageState) {
			m.hand = 0
		}
		switch m.pageState[m.hand] {
		case pageReferenced:
			m.pageState[m.hand] = pageResident
		case pageResident:
			victim := m.hand
			m.pageState[victim] = pageAbsent
			m.resident--
			atomic.AddInt64(&m.evictions, 1)
			if m.mode == ModeHardware {
				m.pageWork(victim)
			}
			m.hand++
			return
		}
		m.hand++
	}
}

// pageWork performs one page's worth of AES as the paging cost. ECB over
// the scratch buffer, in place: no allocation, deterministic, and close
// in magnitude to the MEE work per 4 KiB. The live page bytes are
// deliberately not read — the data value is irrelevant to the cost model,
// and an evicted victim may belong to another enclave thread's arena that
// is being written concurrently. Called with mu held.
func (m *Memory) pageWork(p int) {
	_ = p
	for i := 0; i < PageSize; i += aes.BlockSize {
		m.block.Encrypt(m.scratch[i:i+aes.BlockSize], m.scratch[i:i+aes.BlockSize])
	}
}

// Discard removes the pages covering [off, off+n) from the EPC without
// paying eviction cost — EREMOVE semantics, not EWB: the owner declares
// the contents dead (a released guest arena, a suspended instance whose
// golden snapshot lives on), so there is nothing to encrypt and
// write back, and no fault or eviction is counted. Page state can regress
// (referenced → absent), so the paging generation is bumped — once, if
// anything changed — before the state changes, keeping the EPC-TLB
// contract: a TLB entry proven at the old generation never survives a
// discard. Only pages fully contained in the range are discarded; the
// contents of the backing bytes are untouched (Allocator.Free owns reuse,
// scrub owns wiping).
func (m *Memory) Discard(off, n int64) {
	if n <= 0 {
		return
	}
	if off < 0 {
		off = 0
	}
	end := off + n
	if end > int64(len(m.data)) {
		end = int64(len(m.data))
	}
	first := (off + PageSize - 1) / PageSize
	last := end/PageSize - 1
	if first > last {
		return
	}
	m.mu.Lock()
	bumped := false
	for p := first; p <= last; p++ {
		if m.pageState[p] == pageAbsent {
			continue
		}
		if !bumped {
			atomic.AddUint64(&m.gen, 1)
			bumped = true
		}
		m.pageState[p] = pageAbsent
		m.resident--
	}
	m.mu.Unlock()
}

// RangeResidency counts the EPC pages of [off, off+n) that are currently
// resident, and how many of those hold a second chance (referenced — the
// clock has not swept them since their last access). It is the
// per-instance working-set probe behind swap-tier victim selection: an
// instance whose arena has few referenced pages is cold, one with many
// resident pages is expensive to keep. Pages partially covered by the
// range are counted.
func (m *Memory) RangeResidency(off, n int64) (resident, referenced int) {
	if n <= 0 {
		return 0, 0
	}
	if off < 0 {
		off = 0
	}
	end := off + n
	if end > int64(len(m.data)) {
		end = int64(len(m.data))
	}
	first := off / PageSize
	last := (end - 1) / PageSize
	m.mu.Lock()
	for p := first; p <= last; p++ {
		switch m.pageState[p] {
		case pageReferenced:
			resident++
			referenced++
		case pageResident:
			resident++
		}
	}
	m.mu.Unlock()
	return resident, referenced
}

// Read copies len(p) bytes from enclave memory at off into p.
func (m *Memory) Read(off int64, p []byte) error {
	if err := m.Touch(off, int64(len(p))); err != nil {
		return err
	}
	copy(p, m.data[off:])
	runtime.KeepAlive(m) // the finalizer unmaps data
	return nil
}

// markWritten records that the pages of [off, off+n), a range Touch has
// already bounds-checked, are about to hold caller bytes.
func (m *Memory) markWritten(off, n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		m.written[p/64] |= 1 << (p % 64)
	}
	m.mu.Unlock()
}

// Write copies p into enclave memory at off.
func (m *Memory) Write(off int64, p []byte) error {
	if err := m.Touch(off, int64(len(p))); err != nil {
		return err
	}
	m.markWritten(off, int64(len(p)))
	copy(m.data[off:], p)
	runtime.KeepAlive(m)
	return nil
}

// Slice returns a view of enclave memory [off, off+n) after touching it.
// The returned slice aliases the arena, which the collector does not see:
// it is valid only while the enclave is reachable and not destroyed, and
// its pages count as written from here on. Callers on hot paths use Slice
// to avoid copies, paying the EPC model once per call rather than per byte.
func (m *Memory) Slice(off, n int64) ([]byte, error) {
	if err := m.Touch(off, n); err != nil {
		return nil, err
	}
	m.markWritten(off, n)
	return m.data[off : off+n : off+n], nil
}

// Zero clears [off, off+n). It models an in-enclave memset: the work is
// real and the pages are touched.
func (m *Memory) Zero(off, n int64) error {
	if err := m.Touch(off, n); err != nil {
		return err
	}
	m.markWritten(off, n)
	s := m.data[off : off+n]
	for i := range s {
		s[i] = 0
	}
	runtime.KeepAlive(m)
	return nil
}

// scrub wipes all memory on destroy: the written pages, every other one
// still being the zeros it was mapped as. The caller (Destroy) has already
// drained the TCS pool, so no enclave thread is executing.
func (m *Memory) scrub() {
	m.mu.Lock()
	defer m.mu.Unlock()
	atomic.AddUint64(&m.gen, 1)
	for w, set := range m.written {
		for ; set != 0; set &= set - 1 {
			p := w*64 + bits.TrailingZeros64(set)
			clear(m.data[p*PageSize : (p+1)*PageSize])
		}
		m.written[w] = 0
	}
	for i := range m.pageState {
		m.pageState[i] = pageAbsent
	}
	m.resident = 0
}

// View is a window of enclave memory starting at a fixed, pre-translated
// base offset. TWINE reserves one arena per guest instance and installs
// view.Touch as the linear-memory hook, so the hot path adds the arena
// base exactly once per access with no captured-instance indirection.
type View struct {
	m    *Memory
	base int64
}

// ViewAt returns a view whose offset 0 is enclave offset base.
func (m *Memory) ViewAt(base int64) View { return View{m: m, base: base} }

// Touch charges the access [off, off+n) of the view against the EPC
// model. Errors are impossible for in-arena accesses (the caller bounds
// checks against the guest memory, which the arena fully covers), so the
// signature matches the runtime's touch hook directly.
func (v View) Touch(off, n int64) {
	_ = v.m.Touch(v.base+off, n)
}
