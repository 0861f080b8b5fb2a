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
package lut

import (
	"fmt"
	"math"
	"math/bits"

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
// by +128. The whole path is integer arithmetic and table lookups.
func (c *Converter) Convert(r, g, b uint8) (l8, a8, b8 uint8) {
	// Gamma LUT.
	rl := int64(c.gamma[r])
	gl := int64(c.gamma[g])
	bl := int64(c.gamma[b])

	// Matrix multiply; results Q0.16.
	var xyz [3]int64
	for row := 0; row < 3; row++ {
		xyz[row] = (int64(c.mat[row][0])*rl + int64(c.mat[row][1])*gl + int64(c.mat[row][2])*bl) >> matBits
	}

	// Normalize by white and evaluate the PWL f(·).
	var f [3]int32
	for i := 0; i < 3; i++ {
		t := (xyz[i] * int64(c.invW[i])) >> matBits
		f[i] = c.labFFixed(int32(t))
	}

	// Equation 3 in integer form; L in Q0.16 of [0,1] after dividing the
	// 116·f − 16 range by 100.
	lQ := (116*int64(f[1]) - 16*one) // L·2^16, L in [0,100]
	aQ := 500 * (int64(f[0]) - int64(f[1]))
	bQ := 200 * (int64(f[1]) - int64(f[2]))

	l8 = clampU8((lQ*255/100 + one/2) >> fracBits)
	a8 = clampU8((aQ + 128*one + one/2) >> fracBits)
	b8 = clampU8((bQ + 128*one + one/2) >> fracBits)
	return l8, a8, b8
}

// Codes maps one 8-bit sRGB pixel to Lab codes of the given width, 4 to
// 10 bits — the §6.1 bit-width exploration's colour codes. It runs
// Convert's integer path and rounds the same Q0.16 intermediate to the
// width: L·(2^bits−1)/100, and (a+128)·2^(bits−8) for a and b, each
// clamped to the width. At 8 bits these are Convert's codes, on every
// input (TestCodesAt8BitsMatchConvert). Convert keeps its own copy of the
// path so the served conversion pays for no width.
func (c *Converter) Codes(r, g, b uint8, bits int) (lc, ac, bc uint16) {
	rl := int64(c.gamma[r])
	gl := int64(c.gamma[g])
	bl := int64(c.gamma[b])
	var xyz [3]int64
	for row := 0; row < 3; row++ {
		xyz[row] = (int64(c.mat[row][0])*rl + int64(c.mat[row][1])*gl + int64(c.mat[row][2])*bl) >> matBits
	}
	var f [3]int32
	for i := 0; i < 3; i++ {
		t := (xyz[i] * int64(c.invW[i])) >> matBits
		f[i] = c.labFFixed(int32(t))
	}
	lQ := (116*int64(f[1]) - 16*one)
	aQ := 500 * (int64(f[0]) - int64(f[1]))
	bQ := 200 * (int64(f[1]) - int64(f[2]))

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
// bytes, used by the hardware area model: 256 gamma entries plus
// base/slope pairs per PWL segment, at 16 bits each.
func (c *Converter) TableBytes() int {
	return gammaEntries*2 + c.segments*2*2
}

func clampU8(v int64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
