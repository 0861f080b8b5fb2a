//go:build !race

package bench

// raceEnabled reports whether the binary was built with -race; the perf
// gate skips its heap columns under the detector, whose instrumentation
// allocates on its own.
const raceEnabled = false
