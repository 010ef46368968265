//go:build race

package sgx

// raceEnabled lets wall-clock bounds stand down under the race detector,
// whose instrumentation multiplies the cost of every atomic and channel
// operation.
const raceEnabled = true
