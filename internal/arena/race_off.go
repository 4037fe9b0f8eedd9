//go:build !race

package arena

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count gates skip under it because instrumentation changes
// allocation accounting, and Unzeroed poisons its loans under it.
const raceEnabled = false
