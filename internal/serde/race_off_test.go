//go:build !race

package serde

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
