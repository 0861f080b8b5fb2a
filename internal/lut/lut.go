// Package lut is the bit-accurate software model of the accelerator's
// Color Conversion Unit (paper §4.3, §6.1). The unit converts 8-bit sRGB
// to an 8-bit CIELAB encoding entirely with integer arithmetic and two
// look-up tables:
//
//   - a 256-entry LUT for the sRGB gamma power function of Equation 1
//     (one entry per possible 8-bit input), and
//   - an 8-segment piecewise-linear approximation of the cube-root power
//     function of Equation 4, with octave (power-of-two) breakpoints so
//     segment selection is a priority encode in hardware.
//
// The paper selects these structures after the bit-width exploration shows
// an 8-bit datapath loses almost no accuracy; this package is what makes
// that claim testable against the float64 reference in
// internal/colorspace.
//
// Convert runs the unit's arithmetic step by step. Codes reads a
// software image of the same unit instead: the gamma LUT folded into the
// matrix columns, and the PWL f(·) tabulated at every Q0.16 input. The
// image gives the unit's result on every input, bit for bit, at about
// half the cost per pixel. ROM hands out the unit's own constants, so
// that a vector datapath can run the unit's arithmetic eight pixels at a
// time: the fixed datapath's AVX2 kernel (internal/sslic) does, and
// Codes is its specification.
package lut

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sslic/internal/colorspace"
	"sslic/internal/imgio"
)

// Fixed-point scaling of the internal datapath. Linear color, XYZ and the
// f(·) values are carried in Q0.16; the 3×3 matrix and the white-point
// reciprocals in Q2.14.
const (
	fracBits     = 16
	one          = 1 << fracBits
	matBits      = 14
	gammaEntries = 256
)

// DefaultSegments is the number of piecewise-linear segments the paper's
// design uses for the XYZ→Lab power function.
const DefaultSegments = 8

// Converter holds the LUT contents for a particular configuration. The
// zero value is not usable; call NewConverter.
type Converter struct {
	segments int

	gamma [gammaEntries]int32 // Q0.16 linear value per 8-bit sRGB code
	mat   [3][3]int32         // Q2.14 RGB→XYZ matrix
	invW  [3]int32            // Q2.14 reciprocal white point per XYZ channel

	// Piecewise-linear cube root: segment k covers t ∈ [2^-(k+1), 2^-k)
	// (k = 0 is the top octave [1/2, 1]); the final segment covers
	// [0, 2^-(segments-1)) with the linear branch of Equation 4.
	segBase  []int32 // Q0.16 f(t) at segment start
	segSlope []int32 // Q0.16 secant slope df/dt over the segment
	segT0    []int32 // Q0.16 segment start abscissa

	// The software image of the unit, which Codes reads: cols[ch][v] is
	// the matrix column of input channel ch premultiplied by gamma[v],
	// one Q2.30 product per XYZ row, so the 3×3 multiply becomes nine
	// loads and six adds; fTab is the PWL f(·) at every Q0.16 t in
	// [0, 1]. No product exceeds 2^30 and no row sum 2^31 (Z's, the
	// largest, is about 1.17e9), so int32 holds them exactly.
	cols [3][gammaEntries][3]int32
	fTab [one + 1]int32
}

// NewConverter builds a converter with the given number of PWL segments
// (≥ 2; the paper uses 8).
func NewConverter(segments int) (*Converter, error) {
	if segments < 2 || segments > 24 {
		return nil, fmt.Errorf("lut: segment count %d out of range [2, 24]", segments)
	}
	c := &Converter{segments: segments}

	// Gamma LUT (Equation 1): 8-bit sRGB code → Q0.16 linear.
	for i := 0; i < gammaEntries; i++ {
		lin := colorspace.SRGBToLinear(float64(i) / 255)
		c.gamma[i] = int32(math.Round(lin * one))
	}

	// RGB→XYZ matrix (Equation 2) in Q2.14.
	ref := [3][3]float64{
		{0.412453, 0.357580, 0.180423},
		{0.212671, 0.715160, 0.072169},
		{0.019334, 0.119193, 0.950227},
	}
	for r := 0; r < 3; r++ {
		for cidx := 0; cidx < 3; cidx++ {
			c.mat[r][cidx] = int32(math.Round(ref[r][cidx] * (1 << matBits)))
		}
	}
	whites := [3]float64{colorspace.WhiteX, colorspace.WhiteY, colorspace.WhiteZ}
	for i, w := range whites {
		c.invW[i] = int32(math.Round((1 / w) * (1 << matBits)))
	}

	// PWL cube root (Equation 4) with octave breakpoints. Segment k spans
	// [2^-(k+1), 2^-k) for k in [0, segments-2]; the last segment spans
	// [0, 2^-(segments-1)) and uses Equation 4's linear branch, which is
	// exact there when the knee falls inside it.
	n := segments
	c.segBase = make([]int32, n)
	c.segSlope = make([]int32, n)
	c.segT0 = make([]int32, n)
	labF := func(t float64) float64 {
		if t > 0.008856 {
			return math.Cbrt(t)
		}
		return (903.3*t + 16) / 116
	}
	for k := 0; k < n-1; k++ {
		hi := math.Pow(2, float64(-k))
		lo := hi / 2
		f0 := labF(lo)
		f1 := labF(hi)
		slope := (f1 - f0) / (hi - lo)
		// Minimax fit: the cube root is concave, so the secant through the
		// endpoints under-estimates everywhere inside the segment; lifting
		// the line by half the maximum deviation halves the worst-case
		// error at zero hardware cost (the offset folds into the ROM
		// constant). Find the deviation numerically.
		maxDev := 0.0
		for i := 1; i < 64; i++ {
			tt := lo + (hi-lo)*float64(i)/64
			if dev := labF(tt) - (f0 + slope*(tt-lo)); dev > maxDev {
				maxDev = dev
			}
		}
		c.segT0[k] = int32(math.Round(lo * one))
		c.segBase[k] = int32(math.Round((f0 + maxDev/2) * one))
		// Store the slope Δf/Δt in Q0.16; interpolation is then a
		// multiply and shift, no divider needed.
		c.segSlope[k] = int32(math.Round(slope * one))
	}
	// Bottom segment: linear branch coefficients.
	last := n - 1
	c.segT0[last] = 0
	c.segBase[last] = int32(math.Round(16.0 / 116 * one))
	c.segSlope[last] = int32(math.Round(903.3 / 116 * one))

	for ch := range c.cols {
		for v, lin := range c.gamma {
			for row := range c.mat {
				c.cols[ch][v][row] = c.mat[row][ch] * lin
			}
		}
	}
	for t := range c.fTab {
		c.fTab[t] = c.labFFixed(int32(t))
	}
	return c, nil
}

// MustNewConverter is NewConverter but panics on error.
func MustNewConverter(segments int) *Converter {
	c, err := NewConverter(segments)
	if err != nil {
		panic(err)
	}
	return c
}

// Segments returns the configured PWL segment count.
func (c *Converter) Segments() int { return c.segments }

// ROM is what the unit's arithmetic reads: the gamma LUT, the RGB→XYZ
// matrix and the white reciprocals, and the PWL f(·) segments, segment k
// starting at SegT0[k] (see Converter).
type ROM struct {
	Gamma    [gammaEntries]int32 // Q0.16 linear value per 8-bit sRGB code
	Matrix   [3][3]int32         // Q2.14, by XYZ row
	InvWhite [3]int32            // Q2.14, per XYZ channel
	SegBase  []int32             // Q0.16 f(t) at each segment's start
	SegSlope []int32             // Q0.16 slope of each segment
	SegT0    []int32             // Q0.16 start of each segment
}

// ROM returns a copy of the unit's ROM.
func (c *Converter) ROM() ROM {
	return ROM{Gamma: c.gamma, Matrix: c.mat, InvWhite: c.invW,
		SegBase: slices.Clone(c.segBase), SegSlope: slices.Clone(c.segSlope), SegT0: slices.Clone(c.segT0)}
}

// labFFixed evaluates the PWL approximation of Equation 4's f(·) on a
// Q0.16 input in [0, one], returning a Q0.16 result. Segment selection is
// a priority encode on the leading set bit, as the hardware does.
func (c *Converter) labFFixed(t int32) int32 {
	if t < 0 {
		t = 0
	}
	if t > one {
		t = one
	}
	// Octave k hosts t ∈ [2^(16-k-1), 2^(16-k)), so k is the number of
	// leading zeros of t within the Q0.16 word — a single priority encode
	// on the leading set bit, exactly the hardware's segment select.
	// Inputs below the last breakpoint — including t = 0, where no bit is
	// set at all — take the bottom linear segment (whose segT0 is 0).
	var k int
	if t == 0 {
		k = c.segments - 1
	} else {
		k = fracBits - bits.Len32(uint32(t))
		if k < 0 {
			k = 0 // t == one: top octave
		}
		if k > c.segments-1 {
			k = c.segments - 1
		}
	}
	dt := int64(t - c.segT0[k])
	return c.segBase[k] + int32((dt*int64(c.segSlope[k]))>>fracBits)
}

// Convert maps one 8-bit sRGB pixel to the 8-bit Lab encoding used by the
// accelerator scratchpads: L ∈ [0,100] scaled to [0,255]; a and b offset
// by +128. It is the unit's arithmetic, step by step (modelF), and the
// oracle of the table image Codes reads.
func (c *Converter) Convert(r, g, b uint8) (l8, a8, b8 uint8) {
	fx, fy, fz := c.modelF(r, g, b)
	lc, ac, bc := labCodes(fx, fy, fz, 8)
	return uint8(lc), uint8(ac), uint8(bc)
}

// modelF is the unit's Q0.16 f-triple of a pixel, computed as the
// hardware does: gamma LUT, 3×3 matrix multiply, white normalisation and
// the PWL f(·) of each XYZ channel.
func (c *Converter) modelF(r, g, b uint8) (fx, fy, fz int32) {
	rl := int64(c.gamma[r])
	gl := int64(c.gamma[g])
	bl := int64(c.gamma[b])
	var f [3]int32
	for row := 0; row < 3; row++ {
		xyz := (int64(c.mat[row][0])*rl + int64(c.mat[row][1])*gl + int64(c.mat[row][2])*bl) >> matBits
		f[row] = c.labFFixed(int32((xyz * int64(c.invW[row])) >> matBits))
	}
	return f[0], f[1], f[2]
}

// tableF is modelF read from the table image: the matrix columns give
// XYZ, and fTab gives f(·) of each channel's normalised t, clamped to
// [0, 1] as labFFixed clamps it. It equals modelF on every input
// (TestTableFMatchesModelExhaustive).
func (c *Converter) tableF(r, g, b uint8) (fx, fy, fz int32) {
	cr, cg, cb := &c.cols[0][r], &c.cols[1][g], &c.cols[2][b]
	return c.fAt(cr[0]+cg[0]+cb[0], 0), c.fAt(cr[1]+cg[1]+cb[1], 1), c.fAt(cr[2]+cg[2]+cb[2], 2)
}

// fAt is f(·) of XYZ channel ch for a row sum of premultiplied columns.
// The sum's XYZ value is below 2^17 and a white reciprocal below 2^15,
// so their product fits uint32.
func (c *Converter) fAt(sum int32, ch int) int32 {
	t := (uint32(sum) >> matBits * uint32(c.invW[ch])) >> matBits
	return c.fTab[min(t, one)]
}

// Codes maps one 8-bit sRGB pixel to Lab codes of the given width, 4 to
// 10 bits — the §6.1 bit-width exploration's colour codes, and at 8 bits
// the codes the fixed datapath serves. It reads the table image, whose
// f-triple is the unit's own, and rounds it as Convert does (labCodes),
// so at 8 bits these are Convert's codes on every input
// (TestCodesAt8BitsMatchConvert).
func (c *Converter) Codes(r, g, b uint8, bits int) (lc, ac, bc uint16) {
	fx, fy, fz := c.tableF(r, g, b)
	return labCodes(fx, fy, fz, bits)
}

// labCodes rounds a Q0.16 f-triple to Lab codes of the given width, by
// Equation 3 in integer form: L·(2^bits−1)/100, and (a+128)·2^(bits−8)
// for a and b, each clamped to the width.
func labCodes(fx, fy, fz int32, bits int) (lc, ac, bc uint16) {
	lQ := 116*int64(fy) - 16*one // L·2^16, L in [0,100]
	aQ := 500 * (int64(fx) - int64(fy))
	bQ := 200 * (int64(fy) - int64(fz))
	hi := int64(1)<<bits - 1
	half := int64(1) << (23 - bits) // rounds the a/b scaling's shift by 24−bits
	lc = uint16(min(hi, max(0, (lQ*hi/100+one/2)>>fracBits)))
	ac = uint16(min(hi, max(0, (aQ+128*one+half)>>(24-bits))))
	bc = uint16(min(hi, max(0, (bQ+128*one+half)>>(24-bits))))
	return lc, ac, bc
}

// ConvertImage converts an RGB image into the 8-bit Lab planar encoding,
// returning a new image whose channels are L, a, b.
func (c *Converter) ConvertImage(im *imgio.Image) *imgio.Image {
	out := imgio.NewImage(im.W, im.H)
	for i := 0; i < im.Pixels(); i++ {
		out.C0[i], out.C1[i], out.C2[i] = c.Convert(im.C0[i], im.C1[i], im.C2[i])
	}
	return out
}

// TableBytes returns the total ROM footprint of the converter's tables in
// bytes: 256 gamma entries plus base/slope pairs per PWL segment, at 16
// bits each. The hardware area model does not read it; it prices the
// unit by the calibrated constant energy.AreaColorConv. The software
// table image Codes reads is not the unit's ROM and is not counted.
func (c *Converter) TableBytes() int {
	return gammaEntries*2 + c.segments*2*2
}
