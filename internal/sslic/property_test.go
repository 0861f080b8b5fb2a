package sslic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sslic/internal/imgio"
)

// randomImage fills an image with uniform noise — the adversarial input
// for a clustering algorithm.
func randomImage(rng *rand.Rand, w, h int) *imgio.Image {
	im := imgio.NewImage(w, h)
	rng.Read(im.C0)
	rng.Read(im.C1)
	rng.Read(im.C2)
	return im
}

// TestSegmentInvariantsOnRandomImages drives Segment with random sizes,
// K values, ratios and architectures and checks the structural
// invariants that must hold regardless of content:
//
//  1. every pixel carries a label,
//  2. labels are dense in [0, NumRegions) after connectivity,
//  3. every label is 4-connected,
//  4. final centers lie inside the image.
func TestSegmentInvariantsOnRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 16 + r.Intn(60)
		h := 16 + r.Intn(60)
		k := 2 + r.Intn(20)
		ratios := []float64{1, 0.5, 0.25}
		archs := []Arch{PPA, CPA}
		p := DefaultParams(k, ratios[r.Intn(len(ratios))])
		p.Arch = archs[r.Intn(len(archs))]
		p.FullIters = 1 + r.Intn(4)
		im := randomImage(rng, w, h)
		res, err := Segment(im, p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		n := res.Labels.NumRegions()
		maxLbl := res.Labels.MaxLabel()
		if int(maxLbl)+1 != n {
			t.Logf("seed %d: labels not dense: max %d for %d regions", seed, maxLbl, n)
			return false
		}
		for _, v := range res.Labels.Labels {
			if v < 0 || int(v) >= n {
				t.Logf("seed %d: label %d out of range", seed, v)
				return false
			}
		}
		if !allConnected(res.Labels) {
			t.Logf("seed %d: disconnected label after connectivity pass", seed)
			return false
		}
		for _, c := range res.Centers {
			if c.X < 0 || c.X >= float64(w) || c.Y < 0 || c.Y >= float64(h) {
				t.Logf("seed %d: center (%g,%g) outside %dx%d", seed, c.X, c.Y, w, h)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// allConnected verifies every label forms one 4-connected component.
func allConnected(lm *imgio.LabelMap) bool {
	w, h := lm.W, lm.H
	seen := make([]bool, w*h)
	comps := map[int32]int{}
	var stack []int
	for seed := range seen {
		if seen[seed] {
			continue
		}
		lbl := lm.Labels[seed]
		comps[lbl]++
		if comps[lbl] > 1 {
			return false
		}
		stack = append(stack[:0], seed)
		seen[seed] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := cur%w, cur/w
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := ny*w + nx
				if !seen[ni] && lm.Labels[ni] == lbl {
					seen[ni] = true
					stack = append(stack, ni)
				}
			}
		}
	}
	return true
}

// TestSegmentExtremeParameters exercises the parameter edges: K=1, K
// close to the pixel count, very small images, extreme compactness.
func TestSegmentExtremeParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		w, h int
		p    Params
	}{
		{"K1", 24, 24, DefaultParams(1, 0.5)},
		{"huge compactness", 24, 24, func() Params { p := DefaultParams(8, 0.5); p.Compactness = 40; return p }()},
		{"tiny compactness", 24, 24, func() Params { p := DefaultParams(8, 0.5); p.Compactness = 1; return p }()},
		{"tiny image", 4, 4, DefaultParams(2, 1)},
		{"one-pixel rows", 32, 2, DefaultParams(4, 0.5)},
		{"deep subsampling", 32, 32, DefaultParams(8, 0.125)},
	}
	for _, c := range cases {
		im := randomImage(rng, c.w, c.h)
		res, err := Segment(im, c.p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for i, v := range res.Labels.Labels {
			if v < 0 {
				t.Errorf("%s: pixel %d unassigned", c.name, i)
				break
			}
		}
	}
}

// TestSegmentWithDatapathNeverPanics sweeps the fixed datapath's code
// widths against random noise — the coded paths must saturate, never
// wrap or crash.
func TestSegmentWithDatapathNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	im := randomImage(rng, 40, 40)
	for bits := minCodeBits; bits <= maxCodeBits; bits++ {
		p := DefaultParams(8, 0.5)
		p.FullIters = 2
		p.Datapath = Coded(bits)
		if _, err := Segment(im, p); err != nil {
			t.Errorf("%v: %v", p.Datapath, err)
		}
	}
}
