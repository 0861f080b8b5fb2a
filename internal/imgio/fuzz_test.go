package imgio

import (
	"bytes"
	"testing"
)

// FuzzDecodePPM drives the PPM parser with arbitrary bytes: it must
// never panic, and any successfully decoded image must re-encode.
// `go test` runs the seed corpus; `go test -fuzz=FuzzDecodePPM` explores.
func FuzzDecodePPM(f *testing.F) {
	seeds := [][]byte{
		[]byte("P6\n2 2\n255\n0123456789AB"),
		[]byte("P3\n1 1\n255\n1 2 3"),
		[]byte("P6\n# comment\n1 1\n255\nabc"),
		[]byte("P6\n0 0\n255\n"),
		[]byte("P5\n2 2\n255\nabcd"),
		[]byte(""),
		[]byte("P6"),
		[]byte("P6\n99999999 99999999\n255\n"),
		[]byte("P3\n2 1\n255\n300 -4 12 1 2 3"),
		[]byte("P6\n2 2\n15\n0123456789AB"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd allocations from hostile headers: the
		// decoder must reject anything it cannot back with actual data,
		// so a size cap on the input suffices.
		if len(data) > 1<<16 {
			return
		}
		im, err := DecodePPM(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded images must be internally consistent and re-encodable.
		if im.W <= 0 || im.H <= 0 {
			t.Fatalf("decoder accepted dimensions %dx%d", im.W, im.H)
		}
		if len(im.C0) != im.W*im.H {
			t.Fatalf("plane size %d for %dx%d", len(im.C0), im.W, im.H)
		}
		var buf bytes.Buffer
		if err := EncodePPM(&buf, im); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodePPM(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.W != im.W || back.H != im.H {
			t.Fatal("round trip changed dimensions")
		}
	})
}

// FuzzResize drives Resize and ResizeLabels with arbitrary target
// dimensions: zero and negative targets must error, never panic, and
// accepted targets must produce exactly-sized output.
func FuzzResize(f *testing.F) {
	f.Add(4, 4, 8, 8)
	f.Add(16, 9, 1, 1)
	f.Add(3, 5, 0, 7)    // zero width
	f.Add(3, 5, 7, -2)   // negative height
	f.Add(1, 1, -1, -1)  // both negative
	f.Add(7, 3, 200, 10) // upscale
	f.Fuzz(func(t *testing.T, srcW, srcH, dstW, dstH int) {
		// The source must be a legal image (NewImage panics otherwise by
		// contract); the *target* dimensions are the attack surface.
		if srcW < 1 || srcH < 1 || srcW > 64 || srcH > 64 {
			return
		}
		// Cap accepted targets only to bound allocation, far above any
		// boundary case worth exploring.
		if dstW > 1<<12 || dstH > 1<<12 {
			return
		}
		im := NewImage(srcW, srcH)
		for i := range im.C0 {
			im.C0[i], im.C1[i], im.C2[i] = uint8(i), uint8(i*3), uint8(i*7)
		}
		out, err := Resize(im, dstW, dstH)
		if dstW <= 0 || dstH <= 0 {
			if err == nil {
				t.Fatalf("Resize accepted target %dx%d", dstW, dstH)
			}
		} else if err != nil {
			t.Fatalf("Resize rejected legal target %dx%d: %v", dstW, dstH, err)
		} else if out.W != dstW || out.H != dstH || len(out.C0) != dstW*dstH {
			t.Fatalf("Resize produced %dx%d (plane %d) for target %dx%d",
				out.W, out.H, len(out.C0), dstW, dstH)
		}

		lm := NewLabelMap(srcW, srcH)
		for i := range lm.Labels {
			lm.Labels[i] = int32(i % 9)
		}
		lout, err := ResizeLabels(lm, dstW, dstH)
		if dstW <= 0 || dstH <= 0 {
			if err == nil {
				t.Fatalf("ResizeLabels accepted target %dx%d", dstW, dstH)
			}
			return
		}
		if err != nil {
			t.Fatalf("ResizeLabels rejected legal target %dx%d: %v", dstW, dstH, err)
		}
		if lout.W != dstW || lout.H != dstH || len(lout.Labels) != dstW*dstH {
			t.Fatalf("ResizeLabels produced %dx%d for target %dx%d", lout.W, lout.H, dstW, dstH)
		}
	})
}

// FuzzDecodePGM mirrors FuzzDecodePPM for the single-channel codec.
func FuzzDecodePGM(f *testing.F) {
	for _, s := range [][]byte{
		[]byte("P5\n2 2\n255\nabcd"),
		[]byte("P2\n1 2\n255\n0 128"),
		[]byte("P5\n1 1\n0\nx"),
		[]byte("P2\n-1 1\n255\n"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		w, h, vals, err := DecodePGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if w <= 0 || h <= 0 || len(vals) != w*h {
			t.Fatalf("inconsistent PGM decode: %dx%d, %d values", w, h, len(vals))
		}
	})
}
