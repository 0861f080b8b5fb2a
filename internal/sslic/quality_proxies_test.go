package sslic

import (
	"math"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/quality"
)

// proxiesOf is the quality scan the server runs on a served frame. The
// observability layer promises it is deterministic: it reads the final
// labeling and the center count alone, which are identical across
// TileWorkers on both datapaths.
func proxiesOf(r *Result) quality.LabelScan {
	return quality.ScanLabels(r.Labels, len(r.Centers))
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
			if want.BoundaryPixels == 0 {
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

// pixelQualityScan is the quality scan's definition, pixel by pixel:
// each label in [0, k) counts its pixels, and a pixel with a 4-neighbour
// of another label is a boundary pixel. The size CV sums the counts in
// label order, as the scan does, so the two compare exactly.
func pixelQualityScan(labels *imgio.LabelMap, k int) quality.LabelScan {
	counts := make([]int32, k)
	w, h := labels.W, labels.H
	lb := labels.Labels
	s := quality.LabelScan{Pixels: w * h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			v := lb[i]
			if v >= 0 && int(v) < k {
				counts[v]++
			}
			if (x > 0 && lb[i-1] != v) || (x < w-1 && lb[i+1] != v) ||
				(y > 0 && lb[i-w] != v) || (y < h-1 && lb[i+w] != v) {
				s.BoundaryPixels++
			}
		}
	}
	var sum, sum2 float64
	for _, c := range counts {
		if c == 0 {
			s.EmptyClusters++
		}
		sum += float64(c)
		sum2 += float64(c) * float64(c)
	}
	if n := float64(k); n > 0 && sum > 0 {
		mean := sum / n
		s.ClusterSizeCV = math.Sqrt(max(sum2/n-mean*mean, 0)) / mean
	}
	return s
}

// TestQualityScanMatchesPixelScan: the scan the server runs on the
// core's final labels, at the run's center count, counts what the
// pixel-wise definition counts, on both datapaths, with one Scratch
// reused across frame sizes.
func TestQualityScanMatchesPixelScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fixed bool
	}{
		{"float64", false},
		{"fixed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scr := NewScratch()
			for _, f := range []struct{ w, h, k int }{{96, 64, 32}, {64, 48, 24}, {96, 64, 32}} {
				p := DefaultParams(f.k, 0.5)
				p.Scratch = scr
				if tc.fixed {
					p.Datapath = Fixed
				}
				r, err := Segment(testImage(f.w, f.h), p)
				if err != nil {
					t.Fatalf("%dx%d: %v", f.w, f.h, err)
				}
				got, want := proxiesOf(r), pixelQualityScan(r.Labels, len(r.Centers))
				if got != want {
					t.Fatalf("%dx%d, k %d: scan %+v, pixel scan %+v", f.w, f.h, len(r.Centers), got, want)
				}
				if want.BoundaryPixels == 0 {
					t.Fatalf("%dx%d: no boundary pixels; the comparison would be vacuous", f.w, f.h)
				}
			}
		})
	}
}
