package sslic

import "unsafe"

// useAVX2 routes the fixed band's width-0 tiles to the AVX2 band kernel,
// and the 8-bit colour conversion to the AVX2 conversion kernel. It is
// set once, from the host's CPUID and XCR0, before any run starts.
var useAVX2 = cpuHasAVX2()

// The layout of the sums the AVX2 band kernel adds into.
const (
	fxSigmaSize = unsafe.Sizeof(fxSigma{})
	fxSigmaL    = unsafe.Offsetof(fxSigma{}.l)
	fxSigmaA    = unsafe.Offsetof(fxSigma{}.a)
	fxSigmaB    = unsafe.Offsetof(fxSigma{}.b)
	fxSigmaX    = unsafe.Offsetof(fxSigma{}.x)
	fxSigmaY    = unsafe.Offsetof(fxSigma{}.y)
	fxSigmaN    = unsafe.Offsetof(fxSigma{}.n)
)

// segment runs the AVX2 band kernel over one row segment of the tile:
// the m subset pixels codes[i*step], labelled at labels[i*step], whose x
// terms are xt[j*xs+i] for candidate j, at columns x + i*step of row y;
// it adds their sums into acc. The bounds are checked here, since the
// assembly checks none; the kernel reads x terms up to the end of the
// group of 8 that holds pixel m−1.
func (vt *fxVecTile) segment(codes []uint32, labels []int32, xt []int32, acc []fxSigma, m, step, xs, x, y int) {
	last := (m - 1) * step
	_ = codes[last]
	_ = labels[last]
	_ = xt[(vt.n-1)*xs+(m+7)&^7-1]
	for _, ci := range vt.cand[:vt.n] {
		_ = acc[ci]
	}
	fxBandAVX2(vt, codes, labels, xt, acc, m, step, xs, int32(x), int32(y)|1<<16)
}

// fxBandAVX2 assigns 8 pixels to a YMM register (lanes_amd64.s).
//
//go:noescape
func fxBandAVX2(vt *fxVecTile, codes []uint32, labels []int32, xt []int32, acc []fxSigma, n, step, xs int, px, py int32)

// codes runs the AVX2 conversion kernel over the first len(codes) &^ 7
// pixels of planes r, g and b, writing their packed 8-bit code words,
// and returns how many it converted. The bounds are checked here, since
// the assembly checks none.
func (v *ccuVec) codes(codes []uint32, r, g, b []uint8) int {
	n := len(codes) &^ 7
	if n == 0 {
		return 0
	}
	_, _, _ = r[n-1], g[n-1], b[n-1]
	ccuCodesAVX2(v, codes, r, g, b, n)
	return n
}

// ccuCodesAVX2 converts 8 pixels to a YMM register (convert_amd64.s).
//
//go:noescape
func ccuCodesAVX2(v *ccuVec, codes []uint32, red, green, blue []uint8, n int)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (lanes_amd64.s).
func cpuHasAVX2() bool
