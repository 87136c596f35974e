//go:build race

package workloads

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
