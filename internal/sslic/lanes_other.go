//go:build !amd64

package sslic

// useAVX2 is false: the AVX2 kernels exist on amd64 only.
var useAVX2 = false

// run is the AVX2 band kernel's entry (see lanes_amd64.go); with useAVX2
// false the band never calls it.
func (bk *fxBlocks) run(vts []fxVecTile, codes []uint32, labels []int32, xt, yt []int32, acc []fxSigma) int64 {
	panic("sslic: the AVX2 band kernel runs on amd64 only")
}

// codes is the AVX2 conversion kernel's entry (see lanes_amd64.go); with
// useAVX2 false the conversion never calls it.
func (v *ccuVec) codes(codes []uint32, r, g, b []uint8) int {
	panic("sslic: the AVX2 conversion kernel runs on amd64 only")
}
