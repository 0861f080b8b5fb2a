package lut

import (
	"math"
	"testing"
	"testing/quick"

	"sslic/internal/colorspace"
	"sslic/internal/imgio"
)

// refLab8 computes the 8-bit Lab encoding through the float64 reference.
func refLab8(r, g, b uint8) (uint8, uint8, uint8) {
	l, a, bb := colorspace.SRGB8ToLab(r, g, b)
	return colorspace.Lab8(l, a, bb)
}

func TestNewConverterValidation(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 25} {
		if _, err := NewConverter(n); err == nil {
			t.Errorf("NewConverter(%d) succeeded, want error", n)
		}
	}
	if _, err := NewConverter(DefaultSegments); err != nil {
		t.Fatalf("default converter: %v", err)
	}
}

func TestMustNewConverterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustNewConverter(0)
}

func TestConvertMatchesReferenceOnGrid(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	var maxDL, maxDA, maxDB int
	for r := 0; r < 256; r += 15 {
		for g := 0; g < 256; g += 15 {
			for b := 0; b < 256; b += 15 {
				l8, a8, b8 := c.Convert(uint8(r), uint8(g), uint8(b))
				lr, ar, br := refLab8(uint8(r), uint8(g), uint8(b))
				maxDL = maxInt(maxDL, absInt(int(l8)-int(lr)))
				maxDA = maxInt(maxDA, absInt(int(a8)-int(ar)))
				maxDB = maxInt(maxDB, absInt(int(b8)-int(br)))
			}
		}
	}
	// The 8-segment PWL bounds |f error| at ~0.006, which the a* = 500·Δf
	// amplifier can turn into a few code units worst case; the paper's
	// quality claim (USE +0.003) tolerates this. Bound the worst case at
	// 8 codes, and the mean much tighter.
	if maxDL > 4 || maxDA > 8 || maxDB > 8 {
		t.Fatalf("LUT path deviates from reference: dL=%d dA=%d dB=%d", maxDL, maxDA, maxDB)
	}
	if mean := meanAbsError(t, DefaultSegments); mean > 1.0 {
		t.Fatalf("mean abs error %.3f code units, want <= 1.0", mean)
	}
}

func TestConvertExtremes(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	// White: L=100 → 255; a=b≈0 → ≈128.
	l8, a8, b8 := c.Convert(255, 255, 255)
	if l8 < 253 || absInt(int(a8)-128) > 2 || absInt(int(b8)-128) > 2 {
		t.Fatalf("white = %d,%d,%d", l8, a8, b8)
	}
	// Black: L≈0.
	l8, a8, b8 = c.Convert(0, 0, 0)
	if l8 > 2 || absInt(int(a8)-128) > 2 || absInt(int(b8)-128) > 2 {
		t.Fatalf("black = %d,%d,%d", l8, a8, b8)
	}
}

func TestConvertGrayAxisNeutral(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	for v := 0; v < 256; v += 5 {
		_, a8, b8 := c.Convert(uint8(v), uint8(v), uint8(v))
		if absInt(int(a8)-128) > 2 || absInt(int(b8)-128) > 2 {
			t.Fatalf("gray %d not neutral: a=%d b=%d", v, a8, b8)
		}
	}
}

func TestConvertLMonotoneOnGray(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	prev := -1
	for v := 0; v < 256; v++ {
		l8, _, _ := c.Convert(uint8(v), uint8(v), uint8(v))
		if int(l8) < prev {
			t.Fatalf("L not monotone at gray %d", v)
		}
		prev = int(l8)
	}
}

func TestMoreSegmentsNeverWorse(t *testing.T) {
	// Average |ΔL| vs reference must not increase when segments double.
	err8 := meanAbsError(t, 8)
	err16 := meanAbsError(t, 16)
	if err16 > err8+0.01 {
		t.Fatalf("16 segments worse than 8: %.4f vs %.4f", err16, err8)
	}
	// And very few segments must be visibly worse than 8 — otherwise the
	// paper's choice of 8 would be unmotivated.
	err2 := meanAbsError(t, 2)
	if err2 <= err8 {
		t.Fatalf("2 segments unexpectedly as good as 8: %.4f vs %.4f", err2, err8)
	}
}

func meanAbsError(t *testing.T, segments int) float64 {
	t.Helper()
	c := MustNewConverter(segments)
	var sum float64
	var n int
	for r := 0; r < 256; r += 25 {
		for g := 0; g < 256; g += 25 {
			for b := 0; b < 256; b += 25 {
				l8, a8, b8 := c.Convert(uint8(r), uint8(g), uint8(b))
				lr, ar, br := refLab8(uint8(r), uint8(g), uint8(b))
				sum += math.Abs(float64(int(l8) - int(lr)))
				sum += math.Abs(float64(int(a8) - int(ar)))
				sum += math.Abs(float64(int(b8) - int(br)))
				n += 3
			}
		}
	}
	return sum / float64(n)
}

func TestLabFFixedMonotone(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	prev := int32(-1)
	for tq := int32(0); tq <= one; tq += 64 {
		f := c.labFFixed(tq)
		if f < prev {
			t.Fatalf("labFFixed not monotone at t=%d", tq)
		}
		prev = f
	}
}

func TestLabFFixedClampsOutOfRange(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	if c.labFFixed(-100) != c.labFFixed(0) {
		t.Fatal("negative input must clamp to 0")
	}
	if c.labFFixed(one+5000) != c.labFFixed(one) {
		t.Fatal("input above 1.0 must clamp")
	}
}

func TestLabFFixedMatchesEquation4(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	labF := func(tt float64) float64 {
		if tt > 0.008856 {
			return math.Cbrt(tt)
		}
		return (903.3*tt + 16) / 116
	}
	prop := func(raw uint16) bool {
		tq := int32(raw)
		got := float64(c.labFFixed(tq)) / one
		want := labF(float64(tq) / one)
		return math.Abs(got-want) < 0.01
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestGammaLUTExhaustive checks every one of the 256 gamma entries —
// the full input domain of the sRGB LUT — against the float64 reference
// transfer function. The ROM must round-to-nearest exactly: zero ULP of
// slack in Q0.16.
func TestGammaLUTExhaustive(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	for i := 0; i < gammaEntries; i++ {
		want := int32(math.Round(colorspace.SRGBToLinear(float64(i)/255) * one))
		if c.gamma[i] != want {
			t.Fatalf("gamma[%d] = %d, want %d", i, c.gamma[i], want)
		}
	}
	// Endpoints are exact by construction: 0 → 0, 255 → 1.0.
	if c.gamma[0] != 0 || c.gamma[255] != one {
		t.Fatalf("gamma endpoints %d, %d", c.gamma[0], c.gamma[255])
	}
}

// TestLabFFixedExhaustiveDomain sweeps the cube-root PWL across its
// entire Q0.16 input domain, all 65537 values, against Equation 4's
// float64 form. The pinned bound (0.0065 ≈ 426 LSB) sits just above the
// measured worst case of the 8-segment minimax fit (0.0059); a wrong
// slope, breakpoint, or segment select moves the error by orders of
// magnitude.
func TestLabFFixedExhaustiveDomain(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	labF := func(tt float64) float64 {
		if tt > 0.008856 {
			return math.Cbrt(tt)
		}
		return (903.3*tt + 16) / 116
	}
	var maxAbs float64
	for tq := int32(0); tq <= one; tq++ {
		got := float64(c.labFFixed(tq)) / one
		want := labF(float64(tq) / one)
		if e := math.Abs(got - want); e > maxAbs {
			maxAbs = e
		}
	}
	if maxAbs > 0.0065 {
		t.Fatalf("max |labFFixed - f| = %.6f over full domain, want <= 0.0065", maxAbs)
	}
}

// TestLabFFixedSegmentSelectExhaustive proves the priority-encode
// segment select against a straight loop over the breakpoint table, for
// every input value and every legal segment count. The two formulations
// must agree bit for bit — the encode is an optimization, not an
// approximation.
func TestLabFFixedSegmentSelectExhaustive(t *testing.T) {
	for _, segments := range []int{2, 3, 8, 24} {
		c := MustNewConverter(segments)
		ref := func(t32 int32) int32 {
			if t32 < 0 {
				t32 = 0
			}
			if t32 > one {
				t32 = one
			}
			// Octaves below one LSB don't exist in Q0.16: k stops at
			// fracBits-1, everything smaller is the bottom segment. (The
			// pre-encode loop implementation missed that cap and shifted
			// by a negative amount on t=0 with segments > 17.)
			for k := 0; k < c.segments-1 && k < fracBits; k++ {
				if t32 >= int32(1)<<(fracBits-k-1) {
					dt := int64(t32 - c.segT0[k])
					return c.segBase[k] + int32((dt*int64(c.segSlope[k]))>>fracBits)
				}
			}
			last := c.segments - 1
			return c.segBase[last] + int32((int64(t32)*int64(c.segSlope[last]))>>fracBits)
		}
		for tq := int32(-2); tq <= one+2; tq++ {
			if got, want := c.labFFixed(tq), ref(tq); got != want {
				t.Fatalf("segments=%d t=%d: priority encode %d, loop reference %d", segments, tq, got, want)
			}
		}
	}
}

// TestConvertExhaustiveGrayAndPrimaries runs the full integer pipeline
// over every 8-bit input on the axes that cover all three LUT channels —
// the gray ramp plus the pure R, G, B ramps — against the float64
// reference, bounding the worst deviation in output code units.
func TestConvertExhaustiveGrayAndPrimaries(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	var maxD int
	check := func(r, g, b uint8) {
		l8, a8, b8 := c.Convert(r, g, b)
		lr, ar, br := refLab8(r, g, b)
		maxD = maxInt(maxD, absInt(int(l8)-int(lr)))
		maxD = maxInt(maxD, absInt(int(a8)-int(ar)))
		maxD = maxInt(maxD, absInt(int(b8)-int(br)))
	}
	for v := 0; v < 256; v++ {
		check(uint8(v), uint8(v), uint8(v))
		check(uint8(v), 0, 0)
		check(0, uint8(v), 0)
		check(0, 0, uint8(v))
	}
	if maxD > 8 {
		t.Fatalf("max deviation %d codes on exhaustive axes, want <= 8", maxD)
	}
}

func TestConvertImage(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	im := imgio.NewImage(3, 2)
	im.Set(0, 0, 255, 0, 0)
	im.Set(1, 0, 0, 255, 0)
	im.Set(2, 0, 255, 255, 255)
	out := c.ConvertImage(im)
	if out.W != 3 || out.H != 2 {
		t.Fatal("dims changed")
	}
	l8, a8, b8 := c.Convert(255, 0, 0)
	if o0, o1, o2 := out.At(0, 0); o0 != l8 || o1 != a8 || o2 != b8 {
		t.Fatal("ConvertImage disagrees with Convert")
	}
	// Red must have a >> 128 (positive a*).
	if a8 <= 150 {
		t.Fatalf("red a* = %d, expected strongly positive", a8)
	}
}

func TestTableBytes(t *testing.T) {
	c := MustNewConverter(8)
	// 256 16-bit gamma entries + 8 base/slope pairs of 16 bits.
	want := 256*2 + 8*2*2
	if c.TableBytes() != want {
		t.Fatalf("TableBytes = %d, want %d", c.TableBytes(), want)
	}
	if c.Segments() != 8 {
		t.Fatalf("Segments = %d", c.Segments())
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTableFMatchesModelExhaustive: the table image's f-triple is the
// unit's arithmetic on every one of the 2^24 inputs. Convert and Codes
// round their triple through the one labCodes, so Codes at every width
// 4–10 is the model's rounding too.
func TestTableFMatchesModelExhaustive(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	for rgb := 0; rgb < 1<<24; rgb++ {
		r, g, b := uint8(rgb>>16), uint8(rgb>>8), uint8(rgb)
		tx, ty, tz := c.tableF(r, g, b)
		if mx, my, mz := c.modelF(r, g, b); tx != mx || ty != my || tz != mz {
			t.Fatalf("rgb %06x: table f (%d, %d, %d), model f (%d, %d, %d)", rgb, tx, ty, tz, mx, my, mz)
		}
	}
}

// TestCodesAt8BitsMatchConvert: the width-w rounding of Codes is
// Convert's own at w = 8, on every one of the 2^24 inputs.
func TestCodesAt8BitsMatchConvert(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	for rgb := 0; rgb < 1<<24; rgb++ {
		r, g, b := uint8(rgb>>16), uint8(rgb>>8), uint8(rgb)
		l8, a8, b8 := c.Convert(r, g, b)
		if lc, ac, bc := c.Codes(r, g, b, 8); lc != uint16(l8) || ac != uint16(a8) || bc != uint16(b8) {
			t.Fatalf("rgb %06x: Codes (%d, %d, %d), Convert (%d, %d, %d)", rgb, lc, ac, bc, l8, a8, b8)
		}
	}
}

// TestCodesScaleWithWidth: each extra bit of width doubles the a/b code
// of a colour, to within rounding, and the extremes fill the width.
func TestCodesScaleWithWidth(t *testing.T) {
	c := MustNewConverter(DefaultSegments)
	for bits := 4; bits <= 10; bits++ {
		top := uint16(1)<<bits - 1
		if l, _, _ := c.Codes(255, 255, 255, bits); l != top {
			t.Errorf("bits=%d: white L code %d, want %d", bits, l, top)
		}
		if l, a, b := c.Codes(0, 0, 0, bits); l != 0 || a != 1<<(bits-1) || b != 1<<(bits-1) {
			t.Errorf("bits=%d: black codes (%d, %d, %d), want (0, %d, %d)", bits, l, a, b, 1<<(bits-1), 1<<(bits-1))
		}
		_, a8, _ := c.Convert(255, 0, 0)
		_, a, _ := c.Codes(255, 0, 0, bits)
		if want := float64(a8) * float64(int(1)<<bits) / 256; math.Abs(float64(a)-want) > 1 {
			t.Errorf("bits=%d: red a code %d, want %.1f ± 1", bits, a, want)
		}
	}
}
