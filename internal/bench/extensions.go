package bench

import (
	"fmt"

	"sslic/internal/dataset"
	"sslic/internal/energy"
	"sslic/internal/hw"
	"sslic/internal/imgio"
	metricspkg "sslic/internal/metrics"
	sslicpkg "sslic/internal/sslic"
)

// Extension experiments beyond the paper's published tables: the knobs
// §5 says the parameterized design exposes ("number of cores, number of
// SIMD ways, memory size, and bit-widths") plus a functional-vs-analytic
// model cross-check. DESIGN.md lists these as the DSE ablations.

func init() {
	register(Runner{
		ID:          "ext-dvfs",
		Description: "Clock/voltage scaling at HD: where does real time break?",
		Run:         extDVFS,
	})
	register(Runner{
		ID:          "ext-bandwidth",
		Description: "DRAM bandwidth sensitivity of the HD design",
		Run:         extBandwidth,
	})
	register(Runner{
		ID:          "ext-multicore",
		Description: "Core-count scaling (Amdahl limit from the serial center update)",
		Run:         extMulticore,
	})
	register(Runner{
		ID:          "ext-funcsim",
		Description: "Functional (bit-accurate) pipeline vs analytic model cross-check",
		Run:         extFuncSim,
	})
}

// dvfsPoints pairs clocks with the roughly linear voltage scaling a
// 16nm process sustains over this range.
var dvfsPoints = []struct {
	ghz float64
	v   float64
}{
	{0.8, 0.58}, {1.0, 0.62}, {1.2, 0.65}, {1.4, 0.69}, {1.6, 0.72}, {1.8, 0.76}, {2.0, 0.80},
}

func extDVFS(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-dvfs",
		Title:   "DVFS sweep of the HD design (K=5000, 9-9-6, 4kB buffers)",
		Columns: []string{"clock", "voltage", "latency(ms)", "fps", "real-time", "power(mW)", "energy(mJ/frame)"},
		Notes: []string{
			"§6.3: the architecture scales gracefully down by reducing buffers and ultimately the clock",
			"expected: real time breaks just below the 1.6 GHz synthesis target at HD",
		},
	}
	for _, p := range dvfsPoints {
		cfg := hw.DefaultConfig()
		cfg.Tech = energy.Default16nm().Scaled(p.ghz*1e9, p.v)
		r, err := hw.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.1fGHz", p.ghz),
			fmt.Sprintf("%.2fV", p.v),
			fmt.Sprintf("%.2f", r.TotalTime*1e3),
			f1(r.FPS),
			fmt.Sprintf("%v", r.RealTime),
			f1(r.PowerWatts*1e3),
			fmt.Sprintf("%.2f", r.EnergyPerFrame*1e3),
		)
	}
	return t, nil
}

func extBandwidth(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-bandwidth",
		Title:   "DRAM bandwidth sensitivity (HD, K=5000, 9-9-6, 4kB buffers)",
		Columns: []string{"bandwidth", "latency(ms)", "fps", "real-time", "mem fraction"},
		Notes: []string{
			"the calibration point is ~8.5 GB/s sustained (LPDDR class); the HD design has essentially no bandwidth headroom — any sustained loss breaks real time, which is why the paper sizes buffers to keep the interface streaming",
		},
	}
	for _, gbps := range []float64{4, 6, 7, 8.5, 10, 12, 17} {
		cfg := hw.DefaultConfig()
		cfg.Tech.DRAMEffectiveBandwidth = gbps * 1e9
		r, err := hw.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.1fGB/s", gbps),
			fmt.Sprintf("%.2f", r.TotalTime*1e3),
			f1(r.FPS),
			fmt.Sprintf("%v", r.RealTime),
			fmt.Sprintf("%.0f%%", 100*r.ClusterMemTime/r.TotalTime),
		)
	}
	return t, nil
}

func extMulticore(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-multicore",
		Title:   "Core-count scaling (HD, K=5000, 9-9-6, 4kB buffers/core)",
		Columns: []string{"cores", "latency(ms)", "fps", "speedup", "area(mm²)", "power(mW)", "fps/mm²"},
		Notes: []string{
			"§5 lists core count among the DSE parameters; the serial center update and the memory time bound the speedup (Amdahl)",
		},
	}
	var base float64
	for _, cores := range []int{1, 2, 4, 8} {
		cfg := hw.DefaultConfig()
		cfg.Cores = cores
		r, err := hw.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		if cores == 1 {
			base = r.TotalTime
		}
		t.AddRow(
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%.2f", r.TotalTime*1e3),
			f1(r.FPS),
			fmt.Sprintf("%.2f×", base/r.TotalTime),
			f4(r.AreaMM2),
			f1(r.PowerWatts*1e3),
			f0(r.PerfPerArea),
		)
	}
	return t, nil
}

func extFuncSim(o Options) (*Table, error) {
	// A small frame keeps the bit-accurate pipeline fast while still
	// exercising every unit.
	const w, h, k = 192, 128, 96
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = w, h
	dcfg.Regions = 10
	sample, err := dataset.Generate(dcfg, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := hw.DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = w, h, k
	cfg.BufferBytesPerChannel = 1024

	fs, err := hw.NewFuncSim(cfg)
	if err != nil {
		return nil, err
	}
	labels, functional, err := fs.Run(sample.Image)
	if err != nil {
		return nil, err
	}
	analytic, err := hw.Simulate(cfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ext-funcsim",
		Title:   fmt.Sprintf("Functional vs analytic model (%dx%d, K=%d)", w, h, k),
		Columns: []string{"quantity", "functional (bit-accurate)", "analytic model"},
		Notes: []string{
			"the functional pipeline runs the frame on datapath coded8, the fixed kernel at 8-bit colour and distance codes; the server runs the same LUT conversion and integer cluster datapath as datapath fixed",
			"one account prices both columns: the functional one from the frame's own work, the analytic one from the configuration's nominal work; they differ only in distance calcs, as border tiles have fewer than nine candidates",
		},
	}
	t.AddRow("compute cycles", f0(functional.Cycles), f0(analytic.Cycles))
	t.AddRow("distance calcs", fmt.Sprintf("%d", functional.Work.DistanceCalcs), fmt.Sprintf("%d", analytic.Work.DistanceCalcs))
	t.AddRow("DRAM traffic (B)", fmt.Sprintf("%d", functional.TrafficBytes), fmt.Sprintf("%d", analytic.TrafficBytes))
	t.AddRow("superpixels", fmt.Sprintf("%d", labels.NumRegions()), fmt.Sprintf("%d (requested)", k))
	return t, nil
}

func init() {
	register(Runner{
		ID:          "ext-convergence",
		Description: "Residual decay per subsampling scheme (the §3 convergence argument)",
		Run:         extConvergence,
	})
}

func extConvergence(o Options) (*Table, error) {
	dcfg := dataset.DefaultConfig()
	sample, err := dataset.Generate(dcfg, o.Seed)
	if err != nil {
		return nil, err
	}
	iters := 8
	if o.Quick {
		iters = 4
	}
	t := &Table{
		ID:      "ext-convergence",
		Title:   "Mean center movement per pass (S-SLIC(0.25), K=900)",
		Columns: []string{"scheme", "pass 1", "pass 4", "pass 8", "final", "passes"},
		Notes: []string{
			"§3: the subsets are traversed round-robin to guarantee all pixels are considered;",
			"spatially uniform schemes decay monotonically, contiguous blocks oscillate",
		},
	}
	for _, scheme := range []sslicpkg.Scheme{sslicpkg.Interleaved, sslicpkg.Rows, sslicpkg.Blocks, sslicpkg.Hashed} {
		p := sslicpkg.DefaultParams(fig2K, 0.25)
		p.FullIters = iters
		p.Scheme = scheme
		r, err := sslicpkg.Segment(sample.Image, p)
		if err != nil {
			return nil, err
		}
		hist := r.Stats.MoveHistory
		at := func(i int) string {
			if i < len(hist) {
				return f3(hist[i])
			}
			return "-"
		}
		t.AddRow(scheme.String(), at(0), at(3), at(7), f3(hist[len(hist)-1]),
			fmt.Sprintf("%d", len(hist)))
	}
	return t, nil
}

func init() {
	register(Runner{
		ID:          "ext-power",
		Description: "Per-unit power breakdown of the Table 4 design points",
		Run:         extPower,
	})
}

func extPower(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-power",
		Title:   "Utilization-weighted power breakdown (K=5000)",
		Columns: []string{"design", "cluster", "colorconv", "center", "scratchpads", "FSM", "DRAM if", "total"},
		Notes: []string{
			"§6.3: scratchpads and external memory assumed at full utilization; the cluster unit and the scratchpads dominate",
		},
	}
	mw := func(v float64) string { return fmt.Sprintf("%.1fmW", v*1e3) }
	for _, row := range table4Rows {
		cfg := hw.DefaultConfig()
		cfg.Width, cfg.Height = row.w, row.h
		cfg.BufferBytesPerChannel = row.buffer
		cfg.Tech.ClockHz = row.clockHz
		r, err := hw.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		b := r.PowerBreakdown
		t.AddRow(row.name, mw(b.Cluster), mw(b.ColorConv), mw(b.CenterUpdate),
			mw(b.Scratchpads), mw(b.FSM), mw(b.DRAMInterface), mw(b.Total()))
	}
	return t, nil
}

func init() {
	register(Runner{
		ID:          "ext-resolution-quality",
		Description: "Segmentation quality of one scene across the Table 4 resolutions",
		Run:         extResolutionQuality,
	})
}

func extResolutionQuality(o Options) (*Table, error) {
	// Render the master scene at HD-class proportions, then derive the
	// smaller workloads by bilinear downscale (labels by nearest) — the
	// same stream Table 4's accelerator rows would see.
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 960, 540 // HD aspect at a tractable software size
	dcfg.Regions = 40
	sample, err := dataset.Generate(dcfg, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-resolution-quality",
		Title:   "Quality across resolutions (S-SLIC(0.5), K scaled with pixel count)",
		Columns: []string{"resolution", "K", "USE", "BoundaryRecall", "ASA"},
		Notes: []string{
			"downscaling pushes fine ground-truth structure below the superpixel grid, so USE grows as resolution drops:",
			"the low-power VGA mode of §6.3 trades boundary fidelity for energy — the quantified cost of graceful scale-down",
		},
	}
	iters := 10
	if o.Quick {
		iters = 4
	}
	for _, res := range []struct{ w, h int }{{960, 540}, {640, 360}, {320, 240}} {
		img, err := imgio.Resize(sample.Image, res.w, res.h)
		if err != nil {
			return nil, err
		}
		gt, err := imgio.ResizeLabels(sample.GT, res.w, res.h)
		if err != nil {
			return nil, err
		}
		// Constant superpixel density: S ≈ 13 px at every resolution.
		k := res.w * res.h / 170
		p := sslicpkg.DefaultParams(k, 0.5)
		p.FullIters = iters
		r, err := sslicpkg.Segment(img, p)
		if err != nil {
			return nil, err
		}
		use, err := metricspkg.UndersegmentationError(r.Labels, gt)
		if err != nil {
			return nil, err
		}
		br, err := metricspkg.BoundaryRecall(r.Labels, gt, 2)
		if err != nil {
			return nil, err
		}
		asa, err := metricspkg.AchievableSegmentationAccuracy(r.Labels, gt)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx%d", res.w, res.h), fmt.Sprintf("%d", k),
			f4(use), f4(br), f4(asa))
	}
	return t, nil
}

func init() {
	register(Runner{
		ID:          "ext-subsample-hw",
		Description: "Accelerator cost vs subsampling ratio: the abstract's 1.8× bandwidth claim",
		Run:         extSubsampleHW,
	})
}

func extSubsampleHW(o Options) (*Table, error) {
	samples, err := corpus(o)
	if err != nil {
		return nil, err
	}
	iters := 9
	if o.Quick {
		iters = 4
	}
	t := &Table{
		ID:      "ext-subsample-hw",
		Title:   "Hardware cost and software quality vs subsampling ratio (HD model, 9 passes / K=900 quality)",
		Columns: []string{"ratio", "traffic(MB)", "mem time(ms)", "latency(ms)", "energy(mJ)", "USE (sw, equal passes)"},
		Notes: []string{
			"equal pass count: lower ratios do less work per pass, so traffic and energy drop while",
			"the ordered-subsets update keeps quality close — the abstract's \"1.8× bandwidth\" effect",
		},
	}
	for _, ratio := range []float64{1, 0.5, 0.25} {
		cfg := hw.DefaultConfig()
		cfg.SubsampleRatio = ratio
		r, err := hw.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		// Software quality at the equivalent pass budget.
		var use float64
		for _, s := range samples {
			p := sslicpkg.DefaultParams(fig2K, ratio)
			p.FullIters = maxIntBench(1, iters/p.Subsets())
			res, err := sslicpkg.Segment(s.Image, p)
			if err != nil {
				return nil, err
			}
			u, err := metricspkg.UndersegmentationError(res.Labels, s.GT)
			if err != nil {
				return nil, err
			}
			use += u
		}
		use /= float64(len(samples))
		t.AddRow(
			fmt.Sprintf("%.2f", ratio),
			f1(float64(r.TrafficBytes)/1e6),
			fmt.Sprintf("%.2f", r.ClusterMemTime*1e3),
			fmt.Sprintf("%.2f", r.TotalTime*1e3),
			fmt.Sprintf("%.2f", r.EnergyPerFrame*1e3),
			f4(use),
		)
	}
	return t, nil
}

func maxIntBench(a, b int) int {
	if a > b {
		return a
	}
	return b
}
