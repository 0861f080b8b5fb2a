package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/video"
)

// The wire layer's phase benchmarks run on consecutive warm frames of
// internal/sslic's phase-benchmark chain — a voronoi pan scene at the
// sizes of perfbench's streams (640×480) and hd_pipeline (1280×720)
// workloads, segmented as served: the fixed datapath at K 900 and ratio
// 0.5, frame 0 cold, then warm at 3 iterations from the previous
// frame's centres. Frame 2 is encoded against frame 1, as the server
// encodes a warm stream's response against the one before:
//
//	go test -run '^$' -bench 'EncodeDelta|DecodeDelta' -benchmem ./internal/wire

var phaseSizes = []struct{ w, h, regions int }{{640, 480, 80}, {1280, 720, 60}}

// warmPair returns the final labels of frames 1 and 2 of the chain at
// w×h.
func warmPair(w, h, regions int) (base, cur *imgio.LabelMap, err error) {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Regions, cfg.Kind = w, h, regions, dataset.Voronoi
	st, err := video.NewStream(cfg, 1000, video.Pan, 3)
	if err != nil {
		return nil, nil, err
	}
	p := sslic.DefaultParams(900, 0.5)
	p.Datapath = sslic.Fixed
	var frames [3]*imgio.LabelMap
	for f := range frames {
		im, _, err := st.Frame(f)
		if err != nil {
			return nil, nil, err
		}
		r, err := sslic.Segment(im, p)
		if err != nil {
			return nil, nil, err
		}
		frames[f] = r.Labels
		p.InitialCenters, p.FullIters = r.Centers, 3
	}
	return frames[1], frames[2], nil
}

// warmVGA is warmPair at 640×480, made once for the tests and fuzz
// seeds that share it.
var warmVGA = sync.OnceValues(func() ([2]*imgio.LabelMap, error) {
	base, cur, err := warmPair(640, 480, 80)
	return [2]*imgio.LabelMap{base, cur}, err
})

// benchPair is warmPair for a benchmark.
func benchPair(b *testing.B, w, h, regions int) (base, cur *imgio.LabelMap) {
	b.Helper()
	base, cur, err := warmPair(w, h, regions)
	if err != nil {
		b.Fatal(err)
	}
	return base, cur
}

// encodeSink keeps BenchmarkEncodeDelta's stream from being optimised
// away.
var encodeSink int

func BenchmarkEncodeDelta(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			base, cur := benchPair(b, sz.w, sz.h, sz.regions)
			var buf bytes.Buffer
			if err := EncodeDelta(&buf, cur, base); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := EncodeDelta(&buf, cur, base); err != nil {
					b.Fatal(err)
				}
				encodeSink = buf.Len()
			}
			// After the loop: ResetTimer deletes reported metrics.
			b.ReportMetric(float64(buf.Len()), "stream-bytes")
		})
	}
}

// decodeSink keeps BenchmarkDecodeDelta's maps from being optimised
// away.
var decodeSink *imgio.LabelMap

func BenchmarkDecodeDelta(b *testing.B) {
	for _, sz := range phaseSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			base, cur := benchPair(b, sz.w, sz.h, sz.regions)
			var buf bytes.Buffer
			if err := EncodeDelta(&buf, cur, base); err != nil {
				b.Fatal(err)
			}
			stream := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lm, err := Decode(bytes.NewReader(stream), sz.w*sz.h, base)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = lm
			}
			b.ReportMetric(float64(len(stream)), "stream-bytes")
		})
	}
}
