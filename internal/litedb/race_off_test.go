//go:build !race

package litedb

const raceEnabled = false
