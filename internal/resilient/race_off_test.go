//go:build !race

package resilient

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
