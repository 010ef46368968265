package sgx

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Allocator manages the enclave heap (the region of Memory above the
// reserved area). It implements two strategies, selected by Config.HeapMode:
//
//   - HeapSystem reproduces the SGX SDK allocator behaviour observed in the
//     paper (§IV-C): freshly committed pages must be zeroed, and each heap
//     growth performs bookkeeping proportional to the already-committed
//     heap, which makes N growing allocations cost above-linear in total.
//   - HeapPool reproduces TWINE's preallocated-buffer configuration
//     (SQLite's memsys3): the whole heap is committed once at start-up
//     (launch pays the model's paging sweep over it and writes nothing),
//     so each allocation is a cheap free-list operation.
//
// Blocks carry a 16-byte header written into enclave memory itself
// ({size, state}), so invalid frees and double frees are detectable; the
// headers are all the allocator stores in the arena.
//
// The allocator is safe for concurrent use: instances of a concurrent
// runtime carve their arenas (and the protected FS its node-buffer
// arena) while other enclave threads run.
type Allocator struct {
	mem  *Memory
	mode HeapMode

	mu sync.Mutex

	base int64 // first heap byte (after reserved region)
	end  int64 // one past last heap byte
	brk  int64 // high-water mark of committed memory

	free map[int64]int64 // offset -> block size (payload) of freed blocks

	committedPages int64
	pageDirectory  []uint8 // bookkeeping structure walked on growth (HeapSystem)

	allocs int64
	frees  int64
	inUse  int64
}

const (
	allocHeaderSize = 16
	allocMagicLive  = 0xA11C0C0DE
	allocMagicFree  = 0xF4EE0C0DE
)

func newAllocator(mem *Memory, mode HeapMode) *Allocator {
	a := &Allocator{
		mem:  mem,
		mode: mode,
		free: make(map[int64]int64),
	}
	// The reserved region occupies the bottom of enclave memory.
	a.base = mem.Size() - heapSizeOf(mem)
	a.end = mem.Size()
	a.brk = a.base
	a.pageDirectory = make([]uint8, (a.end-a.base)/PageSize)
	if mode == HeapPool {
		// Commit the entire pool up front; this is the one-time cost that
		// makes later allocations cheap. brk still tracks the allocation
		// high-water mark — only the *commit* is eager. It is the model's
		// paging sweep alone: a fresh arena is already zero.
		_ = mem.Touch(a.base, a.end-a.base)
		a.committedPages = (a.end - a.base) / PageSize
		for i := range a.pageDirectory {
			a.pageDirectory[i] = 1
		}
	}
	return a
}

// heapSizeOf recovers the heap size from the memory layout. The reserved
// region is created before the allocator, so the allocator derives its
// bounds from what remains.
func heapSizeOf(mem *Memory) int64 {
	return int64(len(mem.data)) - mem.reservedBytes
}

// Alloc reserves n bytes of enclave heap and returns the payload offset.
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sgx: alloc of %d bytes", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n = align8(n)
	// First fit from the free list: the lowest block that fits, so that
	// placement, hence fault counts, never depends on map order.
	best := int64(-1)
	for off, size := range a.free {
		if size >= n && (best < 0 || off < best) {
			best = off
		}
	}
	if best >= 0 {
		size := a.free[best]
		delete(a.free, best)
		a.writeHeader(best, size, allocMagicLive)
		a.allocs++
		a.inUse += size
		return best + allocHeaderSize, nil
	}
	// Grow from the break.
	need := n + allocHeaderSize
	if a.brk+need > a.end {
		return 0, ErrOutOfMemory
	}
	off := a.brk
	if a.mode == HeapSystem {
		a.commit(off, need)
	}
	a.brk += need
	a.writeHeader(off, n, allocMagicLive)
	a.allocs++
	a.inUse += n
	return off + allocHeaderSize, nil
}

// commit models committing fresh enclave pages in HeapSystem mode: the new
// pages are zeroed (EAUG semantics) and the allocator's page directory is
// re-walked, which is the above-linear component the paper measured.
func (a *Allocator) commit(off, n int64) {
	firstPage := (off - a.base) / PageSize
	lastPage := (off + n - 1 - a.base) / PageSize
	for p := firstPage; p <= lastPage; p++ {
		if a.pageDirectory[p] == 0 {
			a.pageDirectory[p] = 1
			a.committedPages++
			_ = a.mem.Zero(a.base+p*PageSize, PageSize)
		}
	}
	// Bookkeeping walk over all committed pages (checksum keeps the loop
	// from being optimised away).
	var sum uint8
	for p := int64(0); p <= lastPage; p++ {
		sum ^= a.pageDirectory[p]
	}
	a.pageDirectory[0] |= sum & 1
}

// Free releases the block whose payload starts at off.
func (a *Allocator) Free(off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	hdr := off - allocHeaderSize
	if hdr < a.base || off >= a.brk {
		return fmt.Errorf("%w: offset %d outside heap", ErrBadFree, off)
	}
	size, magic, err := a.readHeader(hdr)
	if err != nil {
		return err
	}
	if magic != allocMagicLive {
		if magic == allocMagicFree {
			return fmt.Errorf("%w: double free at %d", ErrBadFree, off)
		}
		return fmt.Errorf("%w: corrupt header at %d", ErrBadFree, off)
	}
	a.writeHeader(hdr, size, allocMagicFree)
	a.free[hdr] = size
	a.frees++
	a.inUse -= size
	return nil
}

// Stats returns (allocations, frees, bytes in use).
func (a *Allocator) Stats() (allocs, frees, inUse int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.frees, a.inUse
}

// CommittedPages returns the number of heap pages committed so far.
func (a *Allocator) CommittedPages() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.committedPages
}

// Base returns the first usable heap offset (useful for carving a single
// large arena out of the enclave, as the database variants do).
func (a *Allocator) Base() int64 { return a.base }

func (a *Allocator) writeHeader(off, size int64, magic uint64) {
	var h [allocHeaderSize]byte
	binary.LittleEndian.PutUint64(h[0:], uint64(size))
	binary.LittleEndian.PutUint64(h[8:], magic)
	_ = a.mem.Write(off, h[:])
}

func (a *Allocator) readHeader(off int64) (size int64, magic uint64, err error) {
	var h [allocHeaderSize]byte
	if err := a.mem.Read(off, h[:]); err != nil {
		return 0, 0, err
	}
	return int64(binary.LittleEndian.Uint64(h[0:])), binary.LittleEndian.Uint64(h[8:]), nil
}

func align8(n int64) int64 { return (n + 7) &^ 7 }
