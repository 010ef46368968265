//go:build !amd64 && !arm64

package sgx

func gtoken() uintptr { return stackToken() }
