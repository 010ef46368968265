//go:build !unix

package sgx

// mapArena where there is no anonymous mapping to ask for: the arena is on
// the Go heap, resident from the start. It only keeps the tree linking.
func mapArena(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapArena([]byte) {}
