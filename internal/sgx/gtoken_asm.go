//go:build amd64 || arm64

package sgx

// getg returns the address of the running goroutine's g (gtoken_*.s).
func getg() uintptr

func gtoken() uintptr { return getg() }
