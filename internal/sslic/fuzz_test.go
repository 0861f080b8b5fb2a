package sslic

import (
	"testing"

	"sslic/internal/imgio"
)

// FuzzTileGeometry drives Segment through adversarial tile geometry:
// dimensions that do not divide into the candidate grid, one-pixel-tall
// bands, K larger than the pixel supply, degenerate 1×N strips, and
// worker counts past the row count — on the float64 datapath and on the
// fixed one at width 0 and at the coded width 8 (datapath % 3), which
// share the fixed band's x-term tables and winner rows. The invariants
// are crash-freedom and, on success, a dense fully-assigned label map.
func FuzzTileGeometry(f *testing.F) {
	f.Add(uint8(7), uint8(3), uint8(5), int8(2), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(64), uint8(4), int8(-1), uint8(1), uint8(1))
	f.Add(uint8(64), uint8(1), uint8(9), int8(8), uint8(1), uint8(2))
	f.Add(uint8(13), uint8(11), uint8(200), int8(64), uint8(0), uint8(3))
	f.Add(uint8(2), uint8(2), uint8(1), int8(0), uint8(1), uint8(0))
	f.Add(uint8(31), uint8(17), uint8(16), int8(3), uint8(0), uint8(2))
	f.Add(uint8(37), uint8(22), uint8(12), int8(3), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, w8, h8, k8 uint8, workers int8, datapath, scheme uint8) {
		w := 1 + int(w8)%72
		h := 1 + int(h8)%72
		k := 1 + int(k8)
		im := imgio.NewImage(w, h)
		// Deterministic but spatially varying content keeps the centers
		// moving so the merge path actually runs.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := uint64(x*2654435761 + y*40503 + int(k8)*97)
				im.Set(x, y, uint8(v), uint8(v>>8), uint8(v>>16))
			}
		}
		p := DefaultParams(k, 0.5)
		p.FullIters = 2
		p.TileWorkers = int(workers)
		p.Scheme = Scheme(int(scheme) % 4)
		switch datapath % 3 {
		case 1:
			p.Datapath = Fixed
		case 2:
			p.Datapath = Coded(8)
		}
		r, err := Segment(im, p)
		if err != nil {
			// Rejected configurations are fine; torn results are not.
			return
		}
		n := r.Labels.NumRegions()
		if int(r.Labels.MaxLabel())+1 != n {
			t.Fatalf("%dx%d k=%d workers=%d dp=%v: labels not dense (max %d, regions %d)",
				w, h, k, workers, p.Datapath, r.Labels.MaxLabel(), n)
		}
		for i, v := range r.Labels.Labels {
			if v < 0 || int(v) >= n {
				t.Fatalf("%dx%d k=%d workers=%d dp=%v: label %d out of range at pixel %d",
					w, h, k, workers, p.Datapath, v, i)
			}
		}
		for _, c := range r.Centers {
			if c.X < 0 || c.X >= float64(w) || c.Y < 0 || c.Y >= float64(h) {
				t.Fatalf("%dx%d k=%d: center (%g,%g) out of bounds", w, h, k, c.X, c.Y)
			}
		}
	})
}
