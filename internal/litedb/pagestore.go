package litedb

import (
	"fmt"

	"twine/internal/wasm"
)

// PageStore supplies the pager's cache buffers. The native store hands out
// plain Go slices; the sandbox store places buffers inside a WebAssembly
// linear memory, so every page acquisition pays the sandbox's
// bounds-checked access (and, when the linear memory carries an enclave
// touch hook, the EPC residency cost). This is how the reproduction
// imposes the "SQLite compiled to Wasm" memory tax on the same code paths
// (see the package comment in value.go). A page acquisition is one
// Pager.Get, or one row read by a table scan (Pager.touch): a scan holds
// its leaf pinned and pays one access per row it reads out of it.
type PageStore interface {
	// Page returns the buffer backing cache slot i, charging one access.
	Page(slot int) []byte
	// Cap returns the number of slots.
	Cap() int
}

// TouchStore wraps a PageStore, invoking a hook on every slot access.
// Enclave variants use it to charge page-cache residency against the EPC.
type TouchStore struct {
	Inner  PageStore
	OnPage func(slot int)
}

// NewTouchStore wraps inner.
func NewTouchStore(inner PageStore, onPage func(slot int)) PageStore {
	return &TouchStore{Inner: inner, OnPage: onPage}
}

// Page implements PageStore.
func (s *TouchStore) Page(slot int) []byte {
	if s.OnPage != nil {
		s.OnPage(slot)
	}
	return s.Inner.Page(slot)
}

// Cap implements PageStore.
func (s *TouchStore) Cap() int { return s.Inner.Cap() }

// nativeStore allocates page buffers on the Go heap.
type nativeStore struct {
	bufs [][]byte
}

// NewNativeStore returns a PageStore of n direct buffers.
func NewNativeStore(n int) PageStore {
	return &nativeStore{bufs: make([][]byte, n)}
}

func (s *nativeStore) Page(slot int) []byte {
	if s.bufs[slot] == nil {
		s.bufs[slot] = make([]byte, PageSize)
	}
	return s.bufs[slot]
}

func (s *nativeStore) Cap() int { return len(s.bufs) }

// sandboxStore places page buffers in a Wasm linear memory.
type sandboxStore struct {
	mem   *wasm.Memory
	base  uint32
	slots int
}

// NewSandboxStore maps n page slots starting at base inside mem. The
// memory must be large enough; grow it before calling.
func NewSandboxStore(mem *wasm.Memory, base uint32, n int) (PageStore, error) {
	need := uint64(base) + uint64(n)*PageSize
	if need > uint64(mem.Len()) {
		return nil, fmt.Errorf("litedb: sandbox store needs %d bytes, memory has %d", need, mem.Len())
	}
	return &sandboxStore{mem: mem, base: base, slots: n}, nil
}

func (s *sandboxStore) Page(slot int) []byte {
	b, err := s.mem.Bytes(s.base+uint32(slot)*PageSize, PageSize)
	if err != nil {
		// Unreachable by construction; fail loudly rather than corrupt.
		panic(fmt.Sprintf("litedb: sandbox store slot %d: %v", slot, err))
	}
	return b
}

func (s *sandboxStore) Cap() int { return s.slots }
