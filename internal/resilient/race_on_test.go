//go:build race

package resilient

// raceEnabled reports whether the race detector is compiled in; wall
// clock bounds widen under it (everything runs ~10–20× slower).
const raceEnabled = true
