package quality

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/video"
)

// pixelQualityScan is ScanLabels' definition, pixel by pixel: each
// label in [0, k) counts its pixels, and a pixel with a 4-neighbour of
// another label is a boundary pixel. The size CV sums the counts in
// label order, as the scan does, so the two compare exactly.
func pixelQualityScan(labels *imgio.LabelMap, k int) LabelScan {
	counts := make([]int32, k)
	w, h := labels.W, labels.H
	lb := labels.Labels
	s := LabelScan{Pixels: w * h}
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

// grid builds a w×h label map of cols×rows equal rectangles.
func grid(w, h, cols, rows int) *imgio.LabelMap {
	lm := imgio.NewLabelMap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			lm.Set(x, y, int32((y*rows/h)*cols+x*cols/w))
		}
	}
	return lm
}

// TestQualityScanMatchesPixelScan: the bitmask scan counts what the
// pixel-wise definition counts, on maps with known boundary counts and
// on random maps with one-pixel rows and columns and labels below 0 and
// past k, one after another through the pooled counts. The random maps
// run 1–200 pixels wide, and always 63, 64, 65, 127, 128 and 129, the
// widths around one and two 64-pixel mask words; the wide ones span
// the scan's column chunks of scanCols.
func TestQualityScanMatchesPixelScan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lm       *imgio.LabelMap
		k        int
		boundary int
	}{
		{"uniform", grid(16, 16, 1, 1), 1, 0},
		{"2x2 grid", grid(64, 64, 2, 2), 4, 4*64 - 4},
		{"8x8 grid", grid(64, 64, 8, 8), 64, 28*64 - 14*14},
		// A vertical split: two boundary columns of 4 pixels.
		{"split", grid(10, 4, 2, 1), 2, 8},
		// One-pixel-wide stripes: every pixel has a horizontal
		// neighbour of another label.
		{"stripes", &imgio.LabelMap{W: 2, H: 2, Labels: []int32{0, 1, 0, 1}}, 2, 4},
		// A split at the scan's chunk seam: two boundary columns.
		{"chunk seam", grid(2*scanCols, 3, 2, 1), 2, 6},
		// No columns: nothing to walk, every cluster empty.
		{"zero width", &imgio.LabelMap{W: 0, H: 3}, 2, 0},
	} {
		got, want := ScanLabels(tc.lm, tc.k), pixelQualityScan(tc.lm, tc.k)
		if got != want || got.BoundaryPixels != tc.boundary {
			t.Errorf("%s: scan %+v, pixel scan %+v, want %d boundary pixels", tc.name, got, want, tc.boundary)
		}
	}
	rng := rand.New(rand.NewSource(3))
	widths := []int{63, 64, 65, 127, 128, 129, scanCols - 1, scanCols, scanCols + 1, 2*scanCols + 65}
	for iter := 0; iter < 2000; iter++ {
		w, h := 1+rng.Intn(200), 1+rng.Intn(20)
		if iter < len(widths) {
			w, h = widths[iter], 1+rng.Intn(4)
		}
		k, nl := 1+rng.Intn(6), 1+rng.Intn(8)
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			// Runs of 1–12 pixels, so words hold both run ends and runs
			// that cross them.
			if i > 0 && rng.Intn(12) != 0 {
				lm.Labels[i] = lm.Labels[i-1]
				continue
			}
			lm.Labels[i] = int32(rng.Intn(nl)) - 1
		}
		if got, want := ScanLabels(lm, k), pixelQualityScan(lm, k); got != want {
			t.Fatalf("%dx%d, k %d: scan %+v, pixel scan %+v", w, h, k, got, want)
		}
	}
}

// FuzzScanLabels checks the bitmask scan against the pixel scan on
// maps built from the input: a width of 1–256 pixels, a height of 1–16,
// k of 1–8, and labels from −1 to 14, each byte either a new label or
// the previous pixel's, so runs of every length occur.
func FuzzScanLabels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{63, 3, 4, 0, 2, 5, 7, 7, 1})
	f.Add([]byte{64, 1, 7, 3, 3, 3, 9, 9})
	f.Add([]byte{200, 15, 2, 4, 1, 1, 1, 1, 30, 30, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, h, k := 1, 1, 1
		if len(data) >= 3 {
			w, h, k = 1+int(data[0]), 1+int(data[1])%16, 1+int(data[2])%8
			data = data[3:]
		}
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			var b byte
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			lm.Labels[i] = int32(b>>4) - 1
			if b&1 == 1 && i > 0 {
				lm.Labels[i] = lm.Labels[i-1]
			}
		}
		if got, want := ScanLabels(lm, k), pixelQualityScan(lm, k); got != want {
			t.Fatalf("%dx%d, k %d: scan %+v, pixel scan %+v", w, h, k, got, want)
		}
	})
}

// TestScanLabelsConcurrent: scans on several goroutines at once, at
// different k, each get counts of their own from the pool.
func TestScanLabelsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 200; iter++ {
				w, h, k := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(40)
				lm := imgio.NewLabelMap(w, h)
				for i := range lm.Labels {
					lm.Labels[i] = int32(rng.Intn(k + 2))
				}
				if got, want := ScanLabels(lm, k), pixelQualityScan(lm, k); got != want {
					t.Errorf("goroutine %d, %dx%d, k %d: scan %+v, pixel scan %+v", g, w, h, k, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScanLabelsSteadyStateAllocs: once warm, a scan takes its counts
// from the pool and its row masks from the stack, and allocates
// nothing, on a map narrower than one chunk of scanCols columns and on
// one wider than two.
func TestScanLabelsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, lm := range []*imgio.LabelMap{grid(64, 48, 8, 6), grid(2*scanCols+100, 4, 40, 2)} {
		ScanLabels(lm, 48)
		if allocs := testing.AllocsPerRun(100, func() { ScanLabels(lm, 48) }); allocs != 0 {
			t.Fatalf("%dx%d: steady-state ScanLabels allocates %.1f objects/op, want 0", lm.W, lm.H, allocs)
		}
	}
}

func TestResidualProxies(t *testing.T) {
	for _, tc := range []struct {
		name         string
		history      []float64
		final, decay float64
	}{
		{"no pass", nil, 0, 1},
		{"one pass", []float64{0.5}, 0.5, 1},
		{"zero first residual", []float64{0, 0.3}, 0.3, 1},
		{"decaying", []float64{2, 1, 0.5}, 0.5, 0.25},
	} {
		if got := FinalResidual(tc.history); got != tc.final {
			t.Errorf("%s: FinalResidual = %g, want %g", tc.name, got, tc.final)
		}
		if got := ResidualDecay(tc.history); got != tc.decay {
			t.Errorf("%s: ResidualDecay = %g, want %g", tc.name, got, tc.decay)
		}
	}
}

// scanSink keeps BenchmarkScanLabels' calls from being optimised away.
var scanSink LabelScan

// BenchmarkScanLabels times the scan of a served frame's final labels:
// frame 1 of a voronoi pan scene at the sizes of perfbench's streams
// (640×480) and hd_pipeline (1280×720) workloads, segmented as served
// (the fixed datapath at K 900 and ratio 0.5, warm at 3 iterations from
// the centers of frame 0), the frames internal/sslic's phase benchmarks
// run.
func BenchmarkScanLabels(b *testing.B) {
	for _, sz := range []struct{ w, h, regions int }{{640, 480, 80}, {1280, 720, 60}} {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			cfg := dataset.DefaultConfig()
			cfg.W, cfg.H, cfg.Regions, cfg.Kind = sz.w, sz.h, sz.regions, dataset.Voronoi
			st, err := video.NewStream(cfg, 1000, video.Pan, 3)
			if err != nil {
				b.Fatal(err)
			}
			p := sslic.DefaultParams(900, 0.5)
			p.Datapath = sslic.Fixed
			var r *sslic.Result
			for f := 0; f < 2; f++ {
				im, _, err := st.Frame(f)
				if err != nil {
					b.Fatal(err)
				}
				if r, err = sslic.Segment(im, p); err != nil {
					b.Fatal(err)
				}
				p.InitialCenters, p.FullIters = r.Centers, 3
			}
			k := len(r.Centers)
			ScanLabels(r.Labels, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanSink = ScanLabels(r.Labels, k)
			}
		})
	}
}
