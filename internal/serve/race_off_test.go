//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count gates skip under it because instrumentation changes
// allocation accounting.
const raceEnabled = false
