//go:build !race

package tsql

const raceEnabled = false
