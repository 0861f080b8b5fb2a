//go:build !amd64

package sslic

// useAVX2 is false: the AVX2 row kernel exists on amd64 only.
var useAVX2 = false

// nearestRow is the row contract of the 9 distance calculators (see
// lanes_amd64.go), here always the Go loop.
func nearestRow(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, out []uint8) {
	nearestRowGo(lf, codes, xt, step, wL, out)
}
