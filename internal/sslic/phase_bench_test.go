package sslic

import (
	"fmt"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/video"
)

// Phase benchmarks of the fixed datapath's per-pixel fixed costs, at
// the frame sizes of perfbench's streams (640×480) and hd_pipeline
// (1280×720) workloads, so a phase A/B needs no perfbench run:
//
//	go test -run '^$' -bench 'ConvertFixed|Epilogue' -benchmem ./internal/sslic

var phaseSizes = []struct{ w, h, regions int }{{640, 480, 80}, {1280, 720, 60}}

// phaseFrame returns a warm frame of the served configuration at w×h —
// frame 1 of a voronoi pan scene, segmented on the fixed datapath at K
// 900 and ratio 0.5, 3 iterations from frame 0's centres — and the warm
// run's labels before connectivity, with the run's effective K and grid
// interval.
func phaseFrame(b *testing.B, w, h, regions int) (im *imgio.Image, labels *imgio.LabelMap, k int, s float64) {
	b.Helper()
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Regions, cfg.Kind = w, h, regions, dataset.Voronoi
	st, err := video.NewStream(cfg, 1000, video.Pan, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(900, 0.5)
	p.Datapath = Fixed
	for f := 0; f <= 1; f++ {
		if im, _, err = st.Frame(f); err != nil {
			b.Fatal(err)
		}
		if f == 1 {
			p.EnforceConnectivity = false
		}
		r, err := Segment(im, p)
		if err != nil {
			b.Fatal(err)
		}
		p.InitialCenters, p.FullIters = r.Centers, 3
		labels, k = r.Labels, len(r.Centers)
	}
	return im, labels, k, slic.GridInterval(w, h, 900)
}

// BenchmarkConvertFixed times the served colour conversion: one packed
// Lab code word per pixel, from the Color Conversion Unit's tables.
func BenchmarkConvertFixed(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			im, _, _, _ := phaseFrame(b, sz.w, sz.h, sz.regions)
			scr := NewScratch()
			conv := fixedConverter()
			convertLabCodes(conv, im, 0, scr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convertLabCodes(conv, im, 0, scr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sz.w*sz.h), "ns/px")
		})
	}
}

// BenchmarkEpilogue times the final sweep of a warm frame — the
// connectivity pass, then the quality scan — on a Scratch, from the
// frame's labels before connectivity. Restoring those labels between
// iterations is not timed.
func BenchmarkEpilogue(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			_, pre, k, s := phaseFrame(b, sz.w, sz.h, sz.regions)
			minSize := int(s*s) / minRegionDivisor
			lm := imgio.NewLabelMap(sz.w, sz.h)
			scr := NewScratch()
			var st Stats
			epilogue := func() {
				b.StopTimer()
				copy(lm.Labels, pre.Labels)
				b.StartTimer()
				scr.conn.Enforce(lm, minSize)
				qualityScan(lm, k, scr, &st)
			}
			epilogue() // grows the Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epilogue()
			}
		})
	}
}
