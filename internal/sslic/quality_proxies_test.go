package sslic

import (
	"math"
	"testing"

	"sslic/internal/metrics"
	"sslic/internal/slic"
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
					p.Quantization = slic.NewDatapath(8)
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
