//go:build !race

package sgx

const raceEnabled = false
