//go:build race

package litedb

// raceEnabled lets wall-clock bounds stand down under the race detector.
const raceEnabled = true
