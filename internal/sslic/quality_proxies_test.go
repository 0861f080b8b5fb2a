package sslic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/metrics"
)

// proxyStats is the subset of Stats the quality tracker consumes. The
// observability layer promises these are deterministic: they derive
// from the final labeling, which is identical across TileWorkers on
// both datapaths.
type proxyStats struct {
	empty    int
	boundary int
	sizeCV   float64
}

func proxiesOf(r *Result) proxyStats {
	return proxyStats{
		empty:    r.Stats.EmptyClusters,
		boundary: r.Stats.BoundaryPixels,
		sizeCV:   r.Stats.ClusterSizeCV,
	}
}

// TestQualityProxiesDeterministicAcrossWorkers: the proxies exported to
// /debug/streams must not depend on the parallelism the frame happened
// to run with, on either datapath.
func TestQualityProxiesDeterministicAcrossWorkers(t *testing.T) {
	im := testImage(128, 96)
	for _, tc := range []struct {
		name  string
		fixed bool
	}{
		{"float64", false},
		{"fixed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Result {
				p := DefaultParams(48, 0.5)
				p.TileWorkers = workers
				if tc.fixed {
					p.Datapath = Fixed
				}
				r, err := Segment(im, p)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return r
			}
			serial := run(1)
			want := proxiesOf(serial)
			if want.boundary == 0 {
				t.Fatal("test frame produced no boundary pixels; proxies would be vacuous")
			}
			for _, workers := range []int{2, 8} {
				r := run(workers)
				for i := range serial.Labels.Labels {
					if serial.Labels.Labels[i] != r.Labels.Labels[i] {
						t.Fatalf("workers=%d: label mismatch at %d", workers, i)
					}
				}
				if got := proxiesOf(r); got != want {
					t.Fatalf("workers=%d: proxies %+v, want %+v", workers, got, want)
				}
			}
		})
	}
}

// TestQualityProxiesScratchIdentity: supplying reusable working memory
// must not perturb the labeling or the proxies, including when the
// scratch is warm from a previous (different) frame.
func TestQualityProxiesScratchIdentity(t *testing.T) {
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
	if proxiesOf(fresh) != proxiesOf(reused) {
		t.Fatalf("proxies drifted with reused scratch: %+v vs %+v",
			proxiesOf(reused), proxiesOf(fresh))
	}
}

// TestBoundaryPixelsMatchesStandaloneScan: the in-core counter (folded
// into the connectivity sweep) and the metrics package's standalone
// 4-neighbor scan are two implementations of the same definition.
func TestBoundaryPixelsMatchesStandaloneScan(t *testing.T) {
	im := testImage(96, 64)
	r, err := Segment(im, DefaultParams(32, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	n := im.W * im.H
	density := metrics.ContourDensity(r.Labels)
	got := int(math.Round(density * float64(n)))
	if got != r.Stats.BoundaryPixels {
		t.Fatalf("standalone scan counts %d boundary pixels, core counted %d",
			got, r.Stats.BoundaryPixels)
	}
}

// pixelQualityScan is qualityScan's definition, pixel by pixel: each
// label in [0, k) counts its pixels, and a pixel with a 4-neighbour of
// another label is a boundary pixel.
func pixelQualityScan(labels *imgio.LabelMap, k int) (counts []int32, boundary int) {
	counts = make([]int32, k)
	w, h := labels.W, labels.H
	lb := labels.Labels
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			v := lb[i]
			if v >= 0 && int(v) < k {
				counts[v]++
			}
			if (x > 0 && lb[i-1] != v) || (x < w-1 && lb[i+1] != v) ||
				(y > 0 && lb[i-w] != v) || (y < h-1 && lb[i+w] != v) {
				boundary++
			}
		}
	}
	return counts, boundary
}

// TestQualityScanMatchesPixelScan: the run-wise scan counts what the
// pixel-wise definition counts, on random maps with one-pixel rows and
// columns, and labels below 0 and past k, with one Scratch reused.
func TestQualityScanMatchesPixelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scr := NewScratch()
	for iter := 0; iter < 2000; iter++ {
		w, h := 1+rng.Intn(20), 1+rng.Intn(20)
		k, nl := 1+rng.Intn(6), 1+rng.Intn(8)
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			lm.Labels[i] = int32(rng.Intn(nl)) - 1
		}
		var st Stats
		qualityScan(lm, k, scr, &st)
		counts, boundary := pixelQualityScan(lm, k)
		if !slices.Equal(scr.counts, counts) || st.BoundaryPixels != boundary {
			t.Fatalf("%dx%d, k %d: counts %v, %d boundary pixels; pixel scan %v, %d",
				w, h, k, scr.counts, st.BoundaryPixels, counts, boundary)
		}
	}
}
