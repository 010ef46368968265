//go:build !unix || race

package wasm

// linearOffHeap reports whether linear memory lives outside the Go heap
// on this build.
const linearOffHeap = false

// mapLinear where linear memory stays on the Go heap: on targets without
// an anonymous mapping to ask for, and under the race detector, which
// instruments only Go's own heap, so `go test -race` keeps checking every
// guest access. The reservation is the same size, resident from the start.
func mapLinear(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapLinear([]byte) {}
