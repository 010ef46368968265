package wasm

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// TouchFunc observes linear-memory accesses. TWINE installs a hook that
// charges the access against the enclave's EPC model; the default is nil
// (no cost).
type TouchFunc func(off, n int64)

// EPC-TLB geometry. Entries cache 4 KiB guest pages (the SGX enclave page
// size); the table is direct-mapped, so consecutive guest pages land in
// consecutive slots and a PolyBench-style working set of a few arrays
// stays fully cached.
const (
	tlbPageBits = 12 // 4 KiB pages, matching sgx.PageSize
	tlbSlots    = 256
	tlbMask     = tlbSlots - 1
)

// tlbEntry records that guest page tag-1 was proven referenced while the
// touch provider's generation counter read gen. The tag is the page
// number plus one so the zero value matches nothing.
type tlbEntry struct {
	tag uint64
	gen uint64
}

// Memory is a linear memory instance. NewMemory reserves its limit
// (maxPages × 64 KiB) once, outside the Go heap where the build allows
// (linear_unix.go): the host backs only the pages that were written, and
// none of it counts as Go heap. Grow and a reset reslice within the
// reservation and never move the bytes. The reservation is released when
// the Memory is collected, so a view handed out by Bytes (or taken by a
// host function through Range) is valid while the Memory is reachable.
// A Memory is never copied by value.
type Memory struct {
	// data's length is the current size and its capacity the reservation.
	// Bytes in [len, cap) are zero: Grow exposes them as the spec's zeroed
	// new pages, and restore zeroes what a reset drops.
	data     []byte
	limits   Limits
	maxPages uint32
	touch    TouchFunc

	// gen, when non-nil, points at the touch provider's paging generation
	// and enables the software EPC-TLB: once a page has been touched at
	// generation g, further touches of it are provably no-ops until *gen
	// changes, so the hot path skips the hook entirely. See SetTouchGen.
	gen *uint64
	tlb [tlbSlots]tlbEntry
}

// NewMemory creates a memory honouring both the module limits and an
// engine-level cap (capPages; 0 means "module limits only"). A module
// minimum above the cap fails, which is exactly how the paper's PolyBench
// memory-shrinking experiment provokes allocation failure (§V-B). The
// limit is reserved up front: a memory without a declared maximum or cap
// reserves 4 GiB, which fails where int cannot hold it (see "The host's
// cost of a linear memory" in doc.go).
func NewMemory(l Limits, capPages uint32) (*Memory, error) {
	max := uint32(MaxPages)
	if l.HasMax {
		max = l.Max
	}
	if capPages != 0 && capPages < max {
		max = capPages
	}
	if l.Min > max {
		return nil, fmt.Errorf("wasm: memory min %d pages exceeds available %d pages", l.Min, max)
	}
	if uint64(max)*PageSize > math.MaxInt {
		return nil, fmt.Errorf("wasm: memory limit of %d pages does not fit the address space", max)
	}
	data, err := mapLinear(int(max) * PageSize)
	if err != nil {
		return nil, fmt.Errorf("wasm: reserve %d pages of linear memory: %w", max, err)
	}
	m := &Memory{
		data:     data[:int(l.Min)*PageSize],
		limits:   l,
		maxPages: max,
	}
	runtime.SetFinalizer(m, func(m *Memory) { unmapLinear(m.data) })
	return m, nil
}

// SetTouch installs the access hook. Every access calls the hook; use
// SetTouchGen when the hook's semantics allow redundant calls to be
// elided.
func (m *Memory) SetTouch(t TouchFunc) {
	m.touch = t
	m.gen = nil
}

// SetTouchGen installs an access hook together with a generation word and
// enables the EPC-TLB. The contract the provider must honour:
//
//   - touching a 4 KiB-aligned guest page that has already been touched is
//     a no-op as long as *gen has not changed since, and
//   - *gen changes before any state regression that could make a
//     re-touch meaningful again (eviction, clock sweep, reset).
//
// The enclave's EPC model satisfies this exactly (sgx.Memory.Gen), with
// the guest arena aligned to the enclave page size so guest and enclave
// pages coincide. Passing gen == nil degrades to SetTouch.
func (m *Memory) SetTouchGen(t TouchFunc, gen *uint64) {
	m.touch = t
	m.gen = gen
	m.tlb = [tlbSlots]tlbEntry{}
}

// touchRange charges [addr, addr+n) against the touch hook, consulting
// the TLB first. Only single-page spans are cached: multi-page spans are
// rarer and always forwarded, preserving the hook's observed span
// pattern. The caller has already bounds-checked the range and
// guarantees m.touch != nil and n > 0.
func (m *Memory) touchRange(addr, n uint64) {
	if m.gen != nil {
		p := addr >> tlbPageBits
		if (addr+n-1)>>tlbPageBits == p {
			e := &m.tlb[p&tlbMask]
			// The generation is written by the provider under its paging
			// lock but read here lock-free; the atomic load keeps the TLB
			// fast path a single plain load on amd64 while other enclave
			// threads page concurrently.
			if e.tag == p+1 && e.gen == atomic.LoadUint64(m.gen) {
				return // proven referenced at this generation: a no-op touch
			}
		}
	}
	m.touchMiss(addr, n)
}

// touchMiss charges the touch and, for single-page spans with the TLB
// enabled, records the page as hot. The entry is stamped after the hook
// runs: if the touch itself swept or evicted, *m.gen has already moved
// on and the entry carries the new generation, at which the page is
// (re-)referenced. (If a *concurrent* enclave thread evicts this very
// page in the stamp window the entry can over-approximate hotness for
// one generation — a modelling approximation only possible under
// concurrency; single-threaded accounting stays exact, which is what the
// fidelity tests pin.)
func (m *Memory) touchMiss(addr, n uint64) {
	m.touch(int64(addr), int64(n))
	if m.gen != nil {
		p := addr >> tlbPageBits
		if (addr+n-1)>>tlbPageBits == p {
			e := &m.tlb[p&tlbMask]
			e.tag = p + 1
			e.gen = atomic.LoadUint64(m.gen)
		}
	}
}

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.data) / PageSize) }

// Len returns the current size in bytes.
func (m *Memory) Len() int { return len(m.data) }

// Grow adds delta pages, returning the previous page count or -1 when the
// limit would be exceeded. It only reslices within the reservation: the
// bytes past the current length are zero (see Memory.data), so the new
// pages read as the spec's zeroes without a copy, and the old bytes never
// move, so a view the host holds stays valid. The EPC-TLB stays valid
// across growth: guest page numbers and their arena mapping are
// unchanged, and new pages were never cached.
func (m *Memory) Grow(delta uint32) int32 {
	cur := m.Pages()
	if uint64(cur)+uint64(delta) > uint64(m.maxPages) {
		return -1
	}
	m.data = m.data[:(int(cur)+int(delta))*PageSize]
	return int32(cur)
}

// restore replaces the memory contents with a snapshot copy. The byte
// length must be page-aligned and within the instance's limits. The bytes
// a smaller snapshot drops are zeroed before the reslice, so a later Grow
// exposes zeroes, never the previous request's writes; nothing moves and
// nothing is allocated.
func (m *Memory) restore(b []byte) error {
	if len(b)%PageSize != 0 {
		return fmt.Errorf("wasm: snapshot memory size %d is not page aligned", len(b))
	}
	if pages := uint32(len(b) / PageSize); pages > m.maxPages {
		return fmt.Errorf("wasm: snapshot memory %d pages exceeds limit %d", pages, m.maxPages)
	}
	if len(b) < len(m.data) {
		clear(m.data[len(b):])
	}
	m.data = m.data[:len(b)]
	copy(m.data, b)
	m.tlb = [tlbSlots]tlbEntry{}
	return nil
}

// Range checks and touches [off, off+n), returning an error out of bounds.
// Host functions use it before raw access.
func (m *Memory) Range(off, n uint32) error {
	end := uint64(off) + uint64(n)
	if end > uint64(len(m.data)) {
		return fmt.Errorf("wasm: memory access [%d,%d) out of bounds (%d)", off, end, len(m.data))
	}
	if m.touch != nil && n > 0 {
		m.touchRange(uint64(off), uint64(n))
	}
	return nil
}

// Bytes returns a view of guest memory after bounds-checking and touching.
// The view aliases the reservation: memory.grow does not move it, and it
// is valid while the memory is reachable, so a caller that drops its last
// reference to m (or to the instance) keeps m alive with runtime.KeepAlive
// until it is done with the view.
func (m *Memory) Bytes(off, n uint32) ([]byte, error) {
	if err := m.Range(off, n); err != nil {
		return nil, err
	}
	return m.data[off : uint64(off)+uint64(n) : uint64(off)+uint64(n)], nil
}

// ReadU32 loads a little-endian u32 from guest memory.
func (m *Memory) ReadU32(off uint32) (uint32, error) {
	b, err := m.Bytes(off, 4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	runtime.KeepAlive(m)
	return v, nil
}

// WriteU32 stores a little-endian u32 into guest memory.
func (m *Memory) WriteU32(off uint32, v uint32) error {
	b, err := m.Bytes(off, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, v)
	runtime.KeepAlive(m)
	return nil
}

// ReadU64 loads a little-endian u64 from guest memory.
func (m *Memory) ReadU64(off uint32) (uint64, error) {
	b, err := m.Bytes(off, 8)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(b)
	runtime.KeepAlive(m)
	return v, nil
}

// WriteU64 stores a little-endian u64 into guest memory.
func (m *Memory) WriteU64(off uint32, v uint64) error {
	b, err := m.Bytes(off, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	runtime.KeepAlive(m)
	return nil
}

// WriteU16 stores a little-endian u16 into guest memory.
func (m *Memory) WriteU16(off uint32, v uint16) error {
	b, err := m.Bytes(off, 2)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(b, v)
	runtime.KeepAlive(m)
	return nil
}

// WriteByteAt stores one byte into guest memory.
func (m *Memory) WriteByteAt(off uint32, v byte) error {
	b, err := m.Bytes(off, 1)
	if err != nil {
		return err
	}
	b[0] = v
	runtime.KeepAlive(m)
	return nil
}

// ReadString reads n bytes at off as a string.
func (m *Memory) ReadString(off, n uint32) (string, error) {
	b, err := m.Bytes(off, n)
	if err != nil {
		return "", err
	}
	s := string(b)
	runtime.KeepAlive(m)
	return s, nil
}
