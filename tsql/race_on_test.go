//go:build race

package tsql

// raceEnabled turns off wall-clock bounds the race detector would blur.
const raceEnabled = true
