package simd

// avx2 is set once, from the host's CPUID and XCR0.
var avx2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (simd_amd64.s).
func cpuHasAVX2() bool

// notEqualAVX2 writes the mask words of the first n pixels of a and b,
// n > 0 a multiple of 8, 8 pixels to a YMM register (simd_amd64.s). The
// caller checks the bounds: the kernel reads n labels of each row and
// writes Words(n) words.
//
//go:noescape
func notEqualAVX2(dst *uint64, a, b *int32, n int)
