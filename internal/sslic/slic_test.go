package sslic

import (
	"math"
	"slices"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// slicParams is the reference SLIC at the paper's settings: m=10, 10
// iterations, gradient perturbation and connectivity enforcement on.
func slicParams(k int) Params {
	p := DefaultParams(k, 1)
	p.Arch = SLIC
	return p
}

// bandImage builds a w×h image split into vertical color bands, a shape
// SLIC must segment cleanly.
func bandImage(w, h, bands int) *imgio.Image {
	im := imgio.NewImage(w, h)
	colors := [][3]uint8{
		{220, 40, 40}, {40, 220, 40}, {40, 40, 220},
		{220, 220, 40}, {40, 220, 220}, {220, 40, 220},
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := colors[(x*bands/w)%len(colors)]
			im.Set(x, y, c[0], c[1], c[2])
		}
	}
	return im
}

// texturedImage has a smooth half and a strongly textured half —
// the scenario SLICO's adaptive compactness exists for.
func texturedImage(w, h int) *imgio.Image {
	im := imgio.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				im.Set(x, y, 120, 120, 120) // smooth
			} else {
				// High-contrast checkerboard texture.
				if (x+y)%2 == 0 {
					im.Set(x, y, 40, 160, 220)
				} else {
					im.Set(x, y, 220, 100, 40)
				}
			}
		}
	}
	return im
}

func TestSLICBasic(t *testing.T) {
	im := bandImage(60, 40, 3)
	res, err := Segment(im, slicParams(24))
	if err != nil {
		t.Fatal(err)
	}
	// Every pixel labeled.
	for i, v := range res.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned", i)
		}
	}
	n := res.Labels.NumRegions()
	if n < 12 || n > 48 {
		t.Fatalf("region count %d too far from requested 24", n)
	}
	if res.Stats.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", res.Stats.Iterations)
	}
	if res.Stats.DistanceCalcs == 0 {
		t.Fatal("distance calcs not counted")
	}
}

func TestSLICRespectsColorBoundaries(t *testing.T) {
	// Two halves of very different color: no superpixel may straddle the
	// boundary by much. Check label purity against the two halves.
	w, h := 64, 32
	im := imgio.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				im.Set(x, y, 250, 20, 20)
			} else {
				im.Set(x, y, 20, 20, 250)
			}
		}
	}
	res, err := Segment(im, slicParams(16))
	if err != nil {
		t.Fatal(err)
	}
	// For each label, count pixels on each side; impurity must be tiny.
	left := map[int32]int{}
	right := map[int32]int{}
	for i, v := range res.Labels.Labels {
		if (i % w) < w/2 {
			left[v]++
		} else {
			right[v]++
		}
	}
	var impure int
	for lbl, lc := range left {
		if rc := right[lbl]; rc > 0 && lc > 0 {
			if lc < rc {
				impure += lc
			} else {
				impure += rc
			}
		}
	}
	if impure > w*h/50 {
		t.Fatalf("%d pixels in straddling superpixels (>2%%)", impure)
	}
}

func TestSLICConvergesWithThreshold(t *testing.T) {
	im := bandImage(48, 48, 2)
	p := slicParams(16)
	p.Threshold = 0.5
	p.FullIters = 50
	res, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge in 50 iterations on a trivial image")
	}
	if res.Stats.Iterations >= 50 {
		t.Fatal("threshold did not shorten the run")
	}
}

func TestSLICDeterministic(t *testing.T) {
	im := bandImage(40, 30, 3)
	a, err := Segment(im, slicParams(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Segment(im, slicParams(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels.Labels {
		if a.Labels.Labels[i] != b.Labels.Labels[i] {
			t.Fatal("segmentation not deterministic")
		}
	}
}

func TestSLICDefaultParamsValid(t *testing.T) {
	if err := slicParams(100).Validate(64, 64); err != nil {
		t.Fatalf("default SLIC params invalid: %v", err)
	}
}

func TestSLICValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		w, h   int
	}{
		{"zero K", func(p *Params) { p.K = 0 }, 64, 64},
		{"K > N", func(p *Params) { p.K = 10000 }, 16, 16},
		{"zero m", func(p *Params) { p.Compactness = 0 }, 64, 64},
		{"zero iters", func(p *Params) { p.FullIters = 0 }, 64, 64},
		{"bad size", func(p *Params) {}, 0, 64},
		{"ratio 0.5", func(p *Params) { p.SubsampleRatio = 0.5 }, 64, 64},
		{"SLICO on PPA", func(p *Params) { p.Arch, p.AdaptiveCompactness = PPA, true }, 64, 64},
		{"SLICO on CPA", func(p *Params) { p.Arch, p.AdaptiveCompactness = CPA, true }, 64, 64},
		{"warm start", func(p *Params) { p.InitialCenters = make([]slic.Center, 16) }, 64, 64},
		{"unknown arch", func(p *Params) { p.Arch = Arch(9) }, 64, 64},
	}
	for _, c := range cases {
		p := slicParams(10)
		c.mutate(&p)
		if err := p.Validate(c.w, c.h); err == nil {
			t.Errorf("%s: Validate passed, want error", c.name)
		}
	}
}

func TestSLICSegmentErrorOnBadParams(t *testing.T) {
	if _, err := Segment(bandImage(16, 16, 2), Params{Arch: SLIC}); err == nil {
		t.Fatal("want error for zero params")
	}
}

func TestSLICOSegments(t *testing.T) {
	im := texturedImage(64, 48)
	p := slicParams(24)
	p.AdaptiveCompactness = true
	res, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned", i)
		}
	}
	n := res.Labels.NumRegions()
	if n < 12 || n > 48 {
		t.Fatalf("region count %d", n)
	}
}

func TestSLICODeterministic(t *testing.T) {
	im := texturedImage(48, 48)
	p := slicParams(16)
	p.AdaptiveCompactness = true
	a, _ := Segment(im, p)
	b, _ := Segment(im, p)
	for i := range a.Labels.Labels {
		if a.Labels.Labels[i] != b.Labels.Labels[i] {
			t.Fatal("SLICO not deterministic")
		}
	}
}

// TestSLICOEqualizesCompactness is the variant's reason to exist: with a
// single global m, superpixels in the textured half become far less
// compact than in the smooth half; SLICO's per-cluster normalization
// narrows that gap.
func TestSLICOEqualizesCompactness(t *testing.T) {
	im := texturedImage(96, 64)
	gap := func(adaptive bool) float64 {
		p := slicParams(24)
		p.Compactness = 5 // weak global m exaggerates the texture effect
		p.AdaptiveCompactness = adaptive
		res, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		// Mean region width of the boundary mask per half as a cheap
		// shape-raggedness proxy: count boundary pixels per half.
		mask := res.Labels.BoundaryMask()
		var left, right int
		for i, b := range mask {
			if !b {
				continue
			}
			if i%96 < 48 {
				left++
			} else {
				right++
			}
		}
		if left == 0 {
			return 1e9
		}
		return float64(right) / float64(left)
	}
	imbalance := func(ratio float64) float64 {
		if ratio > 1 {
			return ratio - 1
		}
		return 1 - ratio
	}
	plain := imbalance(gap(false))
	slico := imbalance(gap(true))
	if slico > plain {
		t.Fatalf("SLICO boundary-density imbalance %.2f not below plain %.2f", slico, plain)
	}
}

// TestSLICDifferential checks the reference SLIC against the two S-SLIC
// architectures at ratio 1 on corpus scenes. The CPA at ratio 1 must be
// SLIC exactly, with connectivity on and off: every pass sweeps every
// window from reset minima, and the CPA's 2S update window holds every
// member of its center. The float PPA seeds the same grid but searches
// 9 tile candidates instead of windows, so after one iteration it must
// give the same label to at least 95% of the pixels.
func TestSLICDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	centerBits := func(cs []slic.Center) []uint64 {
		var b []uint64
		for _, c := range cs {
			for _, v := range []float64{c.L, c.A, c.B, c.X, c.Y} {
				b = append(b, math.Float64bits(v))
			}
		}
		return b
	}
	run := func(im *imgio.Image, p Params) *Result {
		t.Helper()
		r, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for seed := int64(1); seed <= 6; seed++ {
		s, err := dataset.Generate(dataset.DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{300, 900} {
			for _, conn := range []bool{true, false} {
				p := slicParams(k)
				p.EnforceConnectivity = conn
				ref := run(s.Image, p)
				p.Arch = CPA
				cpa := run(s.Image, p)
				if !slices.Equal(cpa.Labels.Labels, ref.Labels.Labels) {
					t.Errorf("seed %d K %d connectivity %t: CPA labels differ from SLIC", seed, k, conn)
				}
				if !slices.Equal(centerBits(cpa.Centers), centerBits(ref.Centers)) {
					t.Errorf("seed %d K %d connectivity %t: CPA centers differ from SLIC", seed, k, conn)
				}
				if got, want := statsDigest(cpa.Stats), statsDigest(ref.Stats); got != want {
					t.Errorf("seed %d K %d connectivity %t: CPA stats %q, SLIC %q", seed, k, conn, got, want)
				}
			}

			p := slicParams(k)
			p.FullIters = 1
			p.EnforceConnectivity = false
			ref := run(s.Image, p)
			p.Arch = PPA
			ppa := run(s.Image, p)
			same := 0
			for i, v := range ppa.Labels.Labels {
				if v == ref.Labels.Labels[i] {
					same++
				}
			}
			if share := float64(same) / float64(len(ppa.Labels.Labels)); share < 0.95 {
				t.Errorf("seed %d K %d: PPA and SLIC agree on %.2f%% of pixels after one iteration, want >= 95%%",
					seed, k, 100*share)
			}
		}
	}
}
