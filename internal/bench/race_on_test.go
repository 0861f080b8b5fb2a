//go:build race

package bench

// raceEnabled reports whether the binary was built with -race; see
// race_off_test.go.
const raceEnabled = true
