package sslic

import (
	"unsafe"

	"sslic/internal/simd"
)

// useAVX2 routes the fixed band's width-0 tiles to the AVX2 band kernel,
// and the 8-bit colour conversion to the AVX2 conversion kernel. It is
// set once, from the host's CPUID and XCR0 (simd.AVX2), before any run
// starts.
var useAVX2 = simd.AVX2()

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

// The size of a tile as the AVX2 band kernel walks them.
const fxVecTileSize = unsafe.Sizeof(fxVecTile{})

// run runs the AVX2 band kernel over the tiles vts of one tile row, in
// the blocks of bk: it writes the labels of the tiles' subset pixels,
// adds their sums into acc and returns their distance calcs. codes and
// labels start at the tile row's first row, bk.y0. The tiles' x terms
// are in xt and their candidates' y terms in yt (see fxVecTile.load).
// The bounds are checked here, since the assembly checks none: the
// kernel reads and writes codes and labels only at the tiles' columns
// of the blocks' rows, but reads up to 7 x terms past a candidate's last
// and 7 y terms past a block's first row.
func (bk *fxBlocks) run(vts []fxVecTile, codes []uint32, labels []int32, xt, yt []int32, acc []fxSigma) int64 {
	if bk.n == 0 {
		return 0
	}
	last := bk.y + (bk.n-1)*bk.stride // the last block's first row
	if bk.y < bk.y0 || bk.rows < 1 || bk.rows > 8 || bk.m < 1 {
		panic("sslic: the AVX2 band kernel's blocks are out of range")
	}
	_, _ = codes[(bk.end-bk.y0)*bk.w-1], labels[(bk.end-bk.y0)*bk.w-1]
	for i := range vts {
		vt := &vts[i]
		n, x0, tw := int(vt.n), int(vt.x0), int(vt.tw)
		if x0 < 0 || tw < 1 || x0+tw > bk.w || n < 1 || n > fxLanes {
			panic("sslic: an AVX2 band kernel tile is out of range")
		}
		_ = xt[int(vt.xt)+(n-1)*tw+(tw+7)&^7-1]
		for _, ci := range vt.cand[:vt.n] {
			_ = acc[ci]
			if int(ci) < bk.c0 {
				panic("sslic: an AVX2 band kernel candidate has no y terms")
			}
			_ = yt[(int(ci)-bk.c0)*bk.th+last-bk.y0+7]
		}
	}
	return fxRowAVX2(vts, codes, labels, xt, yt, acc, bk)
}

// fxRowAVX2 assigns 8 pixels to a YMM register (lanes_amd64.s).
//
//go:noescape
func fxRowAVX2(vts []fxVecTile, codes []uint32, labels []int32, xt, yt []int32, acc []fxSigma, bk *fxBlocks) int64

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
