//go:build race

package quant

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
