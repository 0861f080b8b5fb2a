//go:build !race

package stream

// raceEnabled reports whether the binary was built with -race; tests
// that assert exact allocation counts skip under the detector, whose
// instrumentation allocates on its own.
const raceEnabled = false
