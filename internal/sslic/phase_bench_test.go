package sslic

import (
	"fmt"
	"testing"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/video"
)

// Phase benchmarks of the fixed datapath — its per-pixel fixed costs and
// the assign phase — at the frame sizes of perfbench's streams (640×480)
// and hd_pipeline (1280×720) workloads, so a phase A/B needs no
// perfbench run:
//
//	go test -run '^$' -bench 'ConvertFixed|Epilogue|AssignFixed' -benchmem ./internal/sslic

var phaseSizes = []struct{ w, h, regions int }{{640, 480, 80}, {1280, 720, 60}}

// assignSizes are BenchmarkAssignFixed's rows: the two phase sizes at K
// 900, Table 5's operating point (1920×1080 at K 5000, tiles about 20 px
// wide), and 1280×720 at K 3600, whose 16-px tiles hold 8 subset pixels
// per row at ratio 0.5.
var assignSizes = []struct{ w, h, regions, k int }{
	{640, 480, 80, 900}, {1280, 720, 60, 900}, {1920, 1080, 60, 5000}, {1280, 720, 60, 3600},
}

// warmFrame returns frame 1 of a voronoi pan scene at w×h and the
// served configuration's Params for it at K k: the fixed datapath at
// ratio 0.5, warm at 3 iterations from the centres of frame 0, which
// runs cold.
func warmFrame(b *testing.B, w, h, regions, k int) (*imgio.Image, Params) {
	b.Helper()
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Regions, cfg.Kind = w, h, regions, dataset.Voronoi
	st, err := video.NewStream(cfg, 1000, video.Pan, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(k, 0.5)
	p.Datapath = Fixed
	im, _, err := st.Frame(0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := Segment(im, p)
	if err != nil {
		b.Fatal(err)
	}
	p.InitialCenters, p.FullIters = r.Centers, 3
	if im, _, err = st.Frame(1); err != nil {
		b.Fatal(err)
	}
	return im, p
}

// phaseFrame returns warmFrame's frame and the warm run's labels before
// connectivity, with the run's grid interval.
func phaseFrame(b *testing.B, w, h, regions int) (im *imgio.Image, labels *imgio.LabelMap, s float64) {
	b.Helper()
	im, p := warmFrame(b, w, h, regions, 900)
	p.EnforceConnectivity = false
	r, err := Segment(im, p)
	if err != nil {
		b.Fatal(err)
	}
	return im, r.Labels, slic.GridInterval(w, h, 900)
}

// BenchmarkAssignFixed times the served assign phase: warmFrame's frame
// segmented whole, again and again, on one Scratch and one label buffer,
// as a pool worker serves a stream. It reports the assign phase's time
// per distance calc, read from the runs' Stats; ns/op is the whole
// frame. The K 900 rows are named by their size alone.
func BenchmarkAssignFixed(b *testing.B) {
	for _, sz := range assignSizes {
		name := fmt.Sprintf("%dx%d", sz.w, sz.h)
		if sz.k != 900 {
			name += fmt.Sprintf("_K%d", sz.k)
		}
		b.Run(name, func(b *testing.B) {
			im, p := warmFrame(b, sz.w, sz.h, sz.regions, sz.k)
			p.Scratch = NewScratch()
			p.LabelBuf = imgio.NewLabelMap(sz.w, sz.h)
			if _, err := Segment(im, p); err != nil { // grows the Scratch
				b.Fatal(err)
			}
			var assign time.Duration
			var calcs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Segment(im, p)
				if err != nil {
					b.Fatal(err)
				}
				assign += r.Stats.AssignTime
				calcs += r.Stats.DistanceCalcs
			}
			b.ReportMetric(float64(assign.Nanoseconds())/float64(calcs), "assign-ns/calc")
		})
	}
}

// BenchmarkConvertFixed times the served colour conversion: one packed
// Lab code word per pixel, from the Color Conversion Unit's tables.
func BenchmarkConvertFixed(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			im, _, _ := phaseFrame(b, sz.w, sz.h, sz.regions)
			scr := NewScratch()
			convertLabCodes(im, 0, scr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convertLabCodes(im, 0, scr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sz.w*sz.h), "ns/px")
		})
	}
}

// BenchmarkEpilogue times the final sweep of a warm frame, the
// connectivity pass alone, on a Scratch, from the frame's labels before
// connectivity. Restoring those labels between iterations is not timed.
// The quality scan of the final labels is internal/quality's
// BenchmarkScanLabels, on the same frames.
func BenchmarkEpilogue(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			_, pre, s := phaseFrame(b, sz.w, sz.h, sz.regions)
			minSize := int(s*s) / minRegionDivisor
			lm := imgio.NewLabelMap(sz.w, sz.h)
			scr := NewScratch()
			epilogue := func() {
				b.StopTimer()
				copy(lm.Labels, pre.Labels)
				b.StartTimer()
				scr.conn.Enforce(lm, minSize)
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
