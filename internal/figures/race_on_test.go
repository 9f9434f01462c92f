//go:build race

package figures

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
