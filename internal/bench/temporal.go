package bench

import (
	"fmt"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/metrics"
	"sslic/internal/quality"
	"sslic/internal/slic"
	"sslic/internal/sslic"
	"sslic/internal/video"
)

func init() {
	register(Runner{
		ID:          "ext-temporal",
		Description: "Warm-started S-SLIC on a 30 fps stream: time, quality, temporal consistency",
		Run:         extTemporal,
	})
	register(Runner{
		ID:          "ext-ksweep",
		Description: "Quality vs superpixel count K (the classic evaluation curve)",
		Run:         extKSweep,
	})
}

func extTemporal(o Options) (*Table, error) {
	cfg := dataset.DefaultConfig()
	stream, err := video.NewStream(cfg, o.Seed, video.Pan, 3)
	if err != nil {
		return nil, err
	}
	frames := 6
	if o.Quick {
		frames = 3
	}
	t := &Table{
		ID:      "ext-temporal",
		Title:   "Frame stream: cold vs warm-started S-SLIC(0.5) (K=900, pan 3 px/frame)",
		Columns: []string{"frame", "mode", "time(ms)", "USE", "temporal consistency"},
		Notes: []string{
			"warm frames reuse the previous centers and run 3 iterations instead of 10 — the",
			"temporal-coherence mode a real 30 fps pipeline uses on the accelerator's host side",
		},
	}
	var prevCenters []slic.Center
	var prevLabels *imgio.LabelMap
	for f := 0; f < frames; f++ {
		img, gt, err := stream.Frame(f)
		if err != nil {
			return nil, err
		}
		p := sslic.DefaultParams(fig2K, 0.5)
		mode := "cold"
		if prevCenters != nil {
			p.InitialCenters = prevCenters
			p.FullIters = 3
			mode = "warm"
		}
		t0 := time.Now()
		r, err := sslic.Segment(img, p)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		use, err := metrics.UndersegmentationError(r.Labels, gt)
		if err != nil {
			return nil, err
		}
		tcCell := "-"
		if prevLabels != nil {
			dxc, dyc := stream.Displacement(f)
			dxp, dyp := stream.Displacement(f - 1)
			tc, err := video.TemporalConsistency(prevLabels, r.Labels, dxc-dxp, dyc-dyp)
			if err != nil {
				return nil, err
			}
			tcCell = f3(tc)
		}
		t.AddRow(fmt.Sprintf("%d", f), mode,
			f1(float64(elapsed.Microseconds())/1000), f4(use), tcCell)
		prevCenters = r.Centers
		prevLabels = r.Labels
	}
	return t, nil
}

func extKSweep(o Options) (*Table, error) {
	samples, err := corpus(o)
	if err != nil {
		return nil, err
	}
	ks := []int{300, 600, 900, 1800, 3600}
	if o.Quick {
		ks = []int{300, 900, 3600}
	}
	iters := 10
	if o.Quick {
		iters = 4
	}
	t := &Table{
		ID:      "ext-ksweep",
		Title:   "Quality vs superpixel count (S-SLIC(0.5))",
		Columns: []string{"K", "USE", "BoundaryRecall", "BoundaryPrecision", "ContourDensity"},
		Notes: []string{
			"more superpixels buy recall and lower USE at the cost of contour density and precision —",
			"the trade the paper's K=900 (Fig 2) and K=5000 (accelerator) operating points sit on",
		},
	}
	for _, k := range ks {
		var use, br, bp, cd float64
		for _, s := range samples {
			p := sslic.DefaultParams(k, 0.5)
			p.FullIters = iters
			r, err := sslic.Segment(s.Image, p)
			if err != nil {
				return nil, err
			}
			u, err := metrics.UndersegmentationError(r.Labels, s.GT)
			if err != nil {
				return nil, err
			}
			b, err := metrics.BoundaryRecall(r.Labels, s.GT, 2)
			if err != nil {
				return nil, err
			}
			pr, err := metrics.BoundaryPrecision(r.Labels, s.GT, 2)
			if err != nil {
				return nil, err
			}
			use += u
			br += b
			bp += pr
			cd += quality.ScanLabels(r.Labels, len(r.Centers)).BoundaryDensity()
		}
		n := float64(len(samples))
		t.AddRow(fmt.Sprintf("%d", k), f4(use/n), f4(br/n), f4(bp/n), f4(cd/n))
	}
	return t, nil
}
