package sslic

import (
	"math"
	"math/rand"
	"testing"

	"sslic/internal/imgio"
)

// testImage builds a w×h image split into colored quadrants plus a smooth
// gradient so subsampled passes have structure to converge on.
func testImage(w, h int) *imgio.Image {
	im := imgio.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var r, g, b uint8
			switch {
			case x < w/2 && y < h/2:
				r, g, b = 230, 50, 50
			case x >= w/2 && y < h/2:
				r, g, b = 50, 230, 50
			case x < w/2:
				r, g, b = 50, 50, 230
			default:
				r, g, b = 230, 230, 50
			}
			// Mild gradient so pixels are not perfectly uniform.
			r += uint8(x % 16)
			g += uint8(y % 16)
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

func TestParamsSubsets(t *testing.T) {
	cases := []struct {
		ratio float64
		want  int
	}{{1, 1}, {0.5, 2}, {0.25, 4}, {0.125, 8}, {0.33, 3}}
	for _, c := range cases {
		p := DefaultParams(100, c.ratio)
		if got := p.Subsets(); got != c.want {
			t.Errorf("Subsets(%g) = %d, want %d", c.ratio, got, c.want)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := DefaultParams(16, 0.5)
	bad := []func(*Params){
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.K = 1 << 30 },
		func(p *Params) { p.Compactness = 0 },
		func(p *Params) { p.FullIters = 0 },
		func(p *Params) { p.SubsampleRatio = 0 },
		func(p *Params) { p.SubsampleRatio = 1.5 },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if err := p.Validate(64, 64); err == nil {
			t.Errorf("case %d: Validate passed, want error", i)
		}
	}
	if err := base.Validate(0, 64); err == nil {
		t.Error("zero width accepted")
	}
}

func TestTilingCandidates(t *testing.T) {
	tl := NewTiling(100, 100, 100) // 10×10 grid
	if tl.NX != 10 || tl.NY != 10 {
		t.Fatalf("grid %dx%d", tl.NX, tl.NY)
	}
	// Interior tile has 9 candidates.
	if n := len(tl.Candidates[5*10+5]); n != 9 {
		t.Fatalf("interior candidates = %d, want 9", n)
	}
	// Corner tile has 4.
	if n := len(tl.Candidates[0]); n != 4 {
		t.Fatalf("corner candidates = %d, want 4", n)
	}
	// Edge tile has 6.
	if n := len(tl.Candidates[5]); n != 6 {
		t.Fatalf("edge candidates = %d, want 6", n)
	}
}

func TestTilingCandidatesContainOwnCell(t *testing.T) {
	tl := NewTiling(64, 48, 48)
	for ti, cand := range tl.Candidates {
		found := false
		for _, ci := range cand {
			if ci == int32(ti) {
				found = true
			}
		}
		if !found {
			t.Fatalf("tile %d candidate list lacks its own center", ti)
		}
	}
}

func TestTileOfCoversAllTiles(t *testing.T) {
	tl := NewTiling(60, 40, 24)
	seen := make([]bool, tl.NumTiles())
	for y := 0; y < 40; y++ {
		for x := 0; x < 60; x++ {
			ti := tl.TileOf(x, y)
			if ti < 0 || ti >= tl.NumTiles() {
				t.Fatalf("TileOf(%d,%d) = %d out of range", x, y, ti)
			}
			seen[ti] = true
		}
	}
	for ti, s := range seen {
		if !s {
			t.Fatalf("tile %d has no pixels", ti)
		}
	}
}

// TestOwnCenterFillMatchesOwnCenter: the run fill must give every
// pixel Tiling.OwnCenter, on random geometry including K = 1 and grids
// that divide neither side, in both modes. The unclaimedOnly mode (the
// CPA's) must leave claimed pixels alone.
func TestOwnCenterFillMatchesOwnCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(90), 1+rng.Intn(90)
		k := 1 + rng.Intn(w*h)
		if i%10 == 0 {
			k = 1
		}
		tl := NewTiling(w, h, k)
		for _, unclaimedOnly := range []bool{false, true} {
			lm := imgio.NewLabelMap(w, h)
			for j := range lm.Labels {
				lm.Labels[j] = int32(rng.Intn(3)) - 1 // -1 is unclaimed
			}
			before := append([]int32(nil), lm.Labels...)
			ownCenterFill(lm, tl, unclaimedOnly)
			for j, got := range lm.Labels {
				want := tl.OwnCenter(j%w, j/w)
				if unclaimedOnly && before[j] >= 0 {
					want = before[j]
				}
				if got != want {
					t.Fatalf("%dx%d K=%d (grid %dx%d) unclaimedOnly=%t: pixel (%d, %d) = %d, want %d",
						w, h, k, tl.NX, tl.NY, unclaimedOnly, j%w, j/w, got, want)
				}
			}
		}
	}
}

func TestSubsetSchemesPartitionPixels(t *testing.T) {
	// Every scheme must assign each pixel to exactly one subset in [0, k)
	// and split the image into roughly equal parts.
	w, h := 64, 48
	for _, scheme := range []Scheme{Interleaved, Rows, Blocks, Hashed} {
		for _, k := range []int{2, 3, 4} {
			counts := make([]int, k)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					s := subsetOf(scheme, x, y, w, h, k)
					if s < 0 || s >= k {
						t.Fatalf("%v: subset %d out of [0,%d)", scheme, s, k)
					}
					counts[s]++
				}
			}
			total := w * h
			for s, c := range counts {
				if c < total/k/2 || c > total/k*2 {
					t.Errorf("%v k=%d: subset %d has %d of %d pixels — too skewed", scheme, k, s, c, total)
				}
			}
		}
	}
}

func TestSegmentPPAFullRatioBasic(t *testing.T) {
	im := testImage(60, 40)
	res, err := Segment(im, DefaultParams(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned", i)
		}
	}
	if res.Stats.SubsetPasses != 10 {
		t.Fatalf("passes = %d, want 10", res.Stats.SubsetPasses)
	}
	if res.Stats.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", res.Stats.Iterations)
	}
}

func TestSegmentSubsampledVisitsFewerPixelsPerPass(t *testing.T) {
	im := testImage(64, 48)
	full, err := Segment(im, DefaultParams(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Segment(im, DefaultParams(24, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// Equal FullIters → equal total pixel visits → similar total distance
	// calcs (within 5%), but twice the passes.
	if half.Stats.SubsetPasses != 2*full.Stats.SubsetPasses {
		t.Fatalf("passes: half=%d full=%d", half.Stats.SubsetPasses, full.Stats.SubsetPasses)
	}
	ratio := float64(half.Stats.DistanceCalcs) / float64(full.Stats.DistanceCalcs)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("distance calc ratio %g, want ~1 for equal full iterations", ratio)
	}
	// And twice the center updates.
	if half.Stats.CenterUpdates != 2*full.Stats.CenterUpdates {
		t.Fatalf("center updates: half=%d full=%d", half.Stats.CenterUpdates, full.Stats.CenterUpdates)
	}
}

func TestSegmentSubsampledQualityClose(t *testing.T) {
	// S-SLIC(0.5) must produce a segmentation close to full-ratio PPA on
	// a structured image: the quadrant boundaries must be respected.
	im := testImage(64, 64)
	res, err := Segment(im, DefaultParams(16, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// No superpixel may straddle the vertical midline by much.
	w := 64
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
			impure += min(lc, rc)
		}
	}
	if impure > 64*64/25 {
		t.Fatalf("%d pixels straddle the color boundary (>4%%)", impure)
	}
}

func TestSegmentAllSchemes(t *testing.T) {
	im := testImage(48, 48)
	for _, scheme := range []Scheme{Interleaved, Rows, Blocks, Hashed} {
		p := DefaultParams(16, 0.25)
		p.Scheme = scheme
		res, err := Segment(im, p)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i, v := range res.Labels.Labels {
			if v < 0 {
				t.Fatalf("%v: pixel %d unassigned", scheme, i)
			}
		}
	}
}

func TestSegmentCPA(t *testing.T) {
	im := testImage(60, 40)
	p := DefaultParams(24, 0.5)
	p.Arch = CPA
	res, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned", i)
		}
	}
	if res.Stats.DistanceCalcs == 0 {
		t.Fatal("CPA counted no distance calcs")
	}
	n := res.Labels.NumRegions()
	if n < 12 || n > 48 {
		t.Fatalf("CPA region count %d too far from 24", n)
	}
}

// TestCPACountsEveryCenterUpdate: a CPA run recomputes every center
// once per full iteration, also when the subset count does not divide
// the effective K (the golden scene's 63 centers at ratios 0.5 and
// 0.25), so a pass reports the size of its own subset.
func TestCPACountsEveryCenterUpdate(t *testing.T) {
	im := goldenScene(t)
	for _, ratio := range []float64{0.5, 0.25} {
		p := DefaultParams(64, ratio)
		p.Arch = CPA
		res, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(p.FullIters * len(res.Centers)); res.Stats.CenterUpdates != want {
			t.Errorf("ratio %g: %d center updates, want %d", ratio, res.Stats.CenterUpdates, want)
		}
	}
}

func TestCPAvsPPAQualitySimilar(t *testing.T) {
	// §4.2: "The PPA shows almost same but slightly better SLIC accuracy
	// than the CPA". Check both respect the quadrant boundaries about
	// equally on a clean image.
	im := testImage(64, 64)
	impurity := func(arch Arch) int {
		p := DefaultParams(16, 1)
		p.Arch = arch
		res, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		w := 64
		left := map[int32]int{}
		right := map[int32]int{}
		for i, v := range res.Labels.Labels {
			if (i % w) < w/2 {
				left[v]++
			} else {
				right[v]++
			}
		}
		var imp int
		for lbl, lc := range left {
			if rc := right[lbl]; rc > 0 && lc > 0 {
				imp += min(lc, rc)
			}
		}
		return imp
	}
	ppa := impurity(PPA)
	cpa := impurity(CPA)
	if ppa > 64*64/25 || cpa > 64*64/25 {
		t.Fatalf("impurity too high: PPA=%d CPA=%d", ppa, cpa)
	}
}

func TestSegmentDeterministic(t *testing.T) {
	im := testImage(48, 36)
	a, _ := Segment(im, DefaultParams(12, 0.5))
	b, _ := Segment(im, DefaultParams(12, 0.5))
	for i := range a.Labels.Labels {
		if a.Labels.Labels[i] != b.Labels.Labels[i] {
			t.Fatal("not deterministic")
		}
	}
}

// TestScratchReuseAcrossFrameSizes: supplying reusable working memory
// must not perturb the labeling, also when the scratch is warm from a
// frame of another size.
func TestScratchReuseAcrossFrameSizes(t *testing.T) {
	im := testImage(96, 64)
	params := func() Params {
		p := DefaultParams(32, 0.5)
		p.TileWorkers = 4
		return p
	}

	p := params()
	fresh, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}

	scratch := &Scratch{}
	// Warm the scratch on a different geometry first, then run the
	// frame under test with it.
	warmup := testImage(64, 48)
	pw := params()
	pw.Scratch = scratch
	if _, err := Segment(warmup, pw); err != nil {
		t.Fatal(err)
	}
	ps := params()
	ps.Scratch = scratch
	reused, err := Segment(im, ps)
	if err != nil {
		t.Fatal(err)
	}

	for i := range fresh.Labels.Labels {
		if fresh.Labels.Labels[i] != reused.Labels.Labels[i] {
			t.Fatalf("label mismatch at %d with reused scratch", i)
		}
	}
}

func TestSegmentThresholdConverges(t *testing.T) {
	im := testImage(48, 48)
	p := DefaultParams(16, 0.5)
	p.Threshold = 0.5
	p.FullIters = 50
	res, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	if res.Stats.SubsetPasses >= 100 {
		t.Fatal("threshold did not stop the run early")
	}
}

func TestPreemptiveSavesWork(t *testing.T) {
	im := testImage(96, 96)
	base := DefaultParams(36, 0.5)
	base.FullIters = 12
	pre := base
	pre.Preemptive = true
	r0, err := Segment(im, base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Segment(im, pre)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.SkippedTiles == 0 {
		t.Fatal("preemptive run skipped no tiles on a convergent image")
	}
	if r1.Stats.DistanceCalcs >= r0.Stats.DistanceCalcs {
		t.Fatalf("preemption saved nothing: %d vs %d calcs",
			r1.Stats.DistanceCalcs, r0.Stats.DistanceCalcs)
	}
	// Quality must stay close: region counts within 30%.
	n0, n1 := r0.Labels.NumRegions(), r1.Labels.NumRegions()
	if math.Abs(float64(n0-n1)) > 0.3*float64(n0) {
		t.Fatalf("preemption changed region count too much: %d vs %d", n0, n1)
	}
}

func TestSegmentWithDatapath(t *testing.T) {
	im := testImage(48, 48)
	p := DefaultParams(16, 0.5)
	p.Datapath = Coded(8)
	res, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned", i)
		}
	}
}

// allDatapaths is every datapath: the float64 reference, the served
// fixed kernel and the seven coded widths.
func allDatapaths() []DatapathKind {
	ds := []DatapathKind{Float64, Fixed}
	for bits := minCodeBits; bits <= maxCodeBits; bits++ {
		ds = append(ds, Coded(bits))
	}
	return ds
}

// TestParseDatapath: each datapath has one name, which String writes and
// ParseDatapath reads back, and the parser takes no other spelling.
func TestParseDatapath(t *testing.T) {
	want := []string{"float64", "fixed", "coded4", "coded5", "coded6", "coded7", "coded8", "coded9", "coded10"}
	for i, d := range allDatapaths() {
		if d.String() != want[i] {
			t.Errorf("datapath %d: String %q, want %q", d, d.String(), want[i])
		}
		if got, err := ParseDatapath(d.String()); err != nil || got != d {
			t.Errorf("ParseDatapath(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	for _, s := range []string{"", "FIXED", "Fixed", "fixed8", "coded08", "coded+8", "coded", "coded3", "coded11", "float", " fixed"} {
		if d, err := ParseDatapath(s); err == nil {
			t.Errorf("ParseDatapath(%q) = %v, want an error", s, d)
		}
	}
	for _, bits := range []int{-1, 0, 1, 3, 11} {
		if d := Coded(bits); d.valid() {
			t.Errorf("Coded(%d) = %v, a valid datapath", bits, d)
		}
	}
}

func TestArchAndSchemeStrings(t *testing.T) {
	if PPA.String() != "PPA" || CPA.String() != "CPA" || SLIC.String() != "SLIC" {
		t.Fatal("Arch strings")
	}
	names := map[Scheme]string{Interleaved: "interleaved", Rows: "rows", Blocks: "blocks", Hashed: "hashed"}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
