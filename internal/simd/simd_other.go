//go:build !amd64

package simd

// avx2 is false: the AVX2 kernel exists on amd64 only.
var avx2 = false

// notEqualAVX2 is the AVX2 kernel's entry (see simd_amd64.go); with
// avx2 false NotEqual never calls it.
func notEqualAVX2(dst *uint64, a, b *int32, n int) {
	panic("simd: the AVX2 compare kernel runs on amd64 only")
}
