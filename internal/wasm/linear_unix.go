//go:build unix && !race

package wasm

import "syscall"

// linearOffHeap reports whether linear memory lives outside the Go heap
// on this build.
const linearOffHeap = true

// mapLinear reserves n zero bytes of linear memory outside the Go heap.
// The host backs a page only once the guest (or a host function) writes
// it, and neither the collector's pacing nor the allocator's span zeroing
// ever sees the reservation.
func mapLinear(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapLinear(b []byte) {
	if cap(b) > 0 {
		_ = syscall.Munmap(b[:cap(b)]) // nothing to do for a failed unmap of a dead memory
	}
}
