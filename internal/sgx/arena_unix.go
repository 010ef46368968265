//go:build unix

package sgx

import "syscall"

// mapArena reserves n zero bytes outside the Go heap. The host backs a page
// only once it is written, and neither the collector's pacing nor the
// allocator's span zeroing ever sees the reservation.
func mapArena(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapArena(b []byte) { _ = syscall.Munmap(b) } // nothing to do for a failed unmap of a dead arena
