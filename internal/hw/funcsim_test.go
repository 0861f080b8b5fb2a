package hw

import (
	"math"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// funcTestConfig shrinks the default design to a small frame so the
// functional simulation stays fast.
func funcTestConfig(w, h, k int) Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = w, h, k
	cfg.BufferBytesPerChannel = 1024
	return cfg
}

func funcTestImage(t testing.TB, w, h int) *imgio.Image {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = w, h
	dcfg.Regions = 8
	s, err := dataset.Generate(dcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	return s.Image
}

func TestFuncSimValidation(t *testing.T) {
	cfg := funcTestConfig(96, 64, 24)
	cfg.Cores = 2
	if _, err := NewFuncSim(cfg); err == nil {
		t.Error("multi-core functional sim accepted")
	}
	cfg = funcTestConfig(0, 64, 24)
	if _, err := NewFuncSim(cfg); err == nil {
		t.Error("invalid config accepted")
	}
	// Energy divides the traffic by the DRAM bandwidth.
	cfg = funcTestConfig(96, 64, 24)
	cfg.Tech.DRAMEffectiveBandwidth = 0
	if _, err := NewFuncSim(cfg); err == nil {
		t.Error("zero DRAM bandwidth accepted")
	}
	// The kernel runs whole iterations: 9 passes do not split into the
	// two subsets of ratio 0.5.
	cfg = funcTestConfig(96, 64, 24)
	cfg.SubsampleRatio = 0.5
	if _, err := NewFuncSim(cfg); err == nil {
		t.Error("9 passes at ratio 0.5 accepted")
	}
}

func TestFuncSimRejectsWrongImageSize(t *testing.T) {
	fs, err := NewFuncSim(funcTestConfig(96, 64, 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Run(imgio.NewImage(50, 50)); err == nil {
		t.Error("mismatched image accepted")
	}
}

func TestFuncSimProducesFullLabeling(t *testing.T) {
	w, h, k := 96, 64, 24
	fs, err := NewFuncSim(funcTestConfig(w, h, k))
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, w, h)
	labels, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unlabeled", i)
		}
	}
	n := labels.NumRegions()
	if n < k/2 || n > k*2 {
		t.Fatalf("functional sim produced %d regions for K=%d", n, k)
	}
	if fs.DistanceCalcs == 0 || fs.Cycles == 0 || fs.DRAMBytes == 0 || fs.DividerOps == 0 {
		t.Fatal("counters not accumulating")
	}
}

func TestFuncSimDeterministic(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	run := func() (*imgio.LabelMap, int64) {
		fs, err := NewFuncSim(funcTestConfig(w, h, k))
		if err != nil {
			t.Fatal(err)
		}
		labels, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		return labels, fs.Cycles
	}
	l1, c1 := run()
	l2, c2 := run()
	if c1 != c2 {
		t.Fatalf("cycle counts differ: %d vs %d", c1, c2)
	}
	for i := range l1.Labels {
		if l1.Labels[i] != l2.Labels[i] {
			t.Fatal("labels differ between runs")
		}
	}
}

// TestFuncSimAgreesWithSoftware checks the central fidelity property:
// the functional pipeline produces exactly the labels of the software
// S-SLIC on the fixed datapath at 8-bit codes, seeded on the static grid
// with no connectivity pass, at every subsampling ratio.
func TestFuncSimAgreesWithSoftware(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	for _, ratio := range []float64{1, 0.5, 0.25} {
		cfg := funcTestConfig(w, h, k)
		cfg.Passes = 8
		cfg.SubsampleRatio = ratio
		fs, err := NewFuncSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hwLabels, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		p := sslic.DefaultParams(k, ratio)
		p.FullIters = int(float64(cfg.Passes) * ratio)
		p.PerturbCenters = false
		p.EnforceConnectivity = false
		p.Datapath = sslic.Fixed
		p.CodeBits = 8
		sw, err := sslic.Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hwLabels.Labels {
			if hwLabels.Labels[i] != sw.Labels.Labels[i] {
				t.Fatalf("ratio %g: pixel %d labelled %d, software %d", ratio, i, hwLabels.Labels[i], sw.Labels.Labels[i])
			}
		}
		if fs.DistanceCalcs != sw.Stats.DistanceCalcs {
			t.Fatalf("ratio %g: %d distance calcs, software %d", ratio, fs.DistanceCalcs, sw.Stats.DistanceCalcs)
		}
	}
}

// TestFuncSimReuse: a second Run on the same simulator starts the FSM
// from idle, labels the frame identically, and adds exactly one more
// frame's counts.
func TestFuncSimReuse(t *testing.T) {
	fs, err := NewFuncSim(funcTestConfig(96, 64, 24))
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, 96, 64)
	// counts reads every counter, and the hits and misses ObserveFuncSim
	// would charge, observing a copy so the simulator keeps its counts.
	counts := func() [10]int64 {
		cp := *fs
		m := NewMetrics(telemetry.NewRegistry())
		m.ObserveFuncSim(&cp)
		return [10]int64{fs.Cycles, fs.ScratchReads, fs.ScratchWrites, fs.DRAMBytes, fs.DistanceCalcs, fs.DividerOps,
			fs.FSM().Visits(StateLoadTile), fs.FSM().Visits(StateCenterUpdate),
			int64(m.ScratchHits.Value()), int64(m.ScratchMisses.Value())}
	}
	first, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	one := counts()
	second, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	two := counts()
	for i := range first.Labels {
		if first.Labels[i] != second.Labels[i] {
			t.Fatalf("pixel %d: second run labelled %d, first %d", i, second.Labels[i], first.Labels[i])
		}
	}
	for i := range one {
		if two[i] != 2*one[i] || one[i] == 0 {
			t.Errorf("counter %d: %d after two runs, %d after one", i, two[i], one[i])
		}
	}
	if fs.FSM().State() != StateDone {
		t.Fatalf("final FSM state %v, want done", fs.FSM().State())
	}
}

// TestFuncSimCyclesMatchAnalyticModel cross-checks the functional
// simulation's cycle count against the analytic Simulate on the same
// configuration: the cluster + center compute cycles must agree within
// a few percent (the models differ only in per-grid-cell vs per-buffer
// drain accounting).
func TestFuncSimCyclesMatchAnalyticModel(t *testing.T) {
	w, h, k := 192, 128, 96
	cfg := funcTestConfig(w, h, k)
	fs, err := NewFuncSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, w, h)
	if _, err := fs.Run(im); err != nil {
		t.Fatal(err)
	}
	analytic, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic compute time (color conv pipeline + cluster + center) vs
	// functional cycles. The analytic color conversion phase is the max
	// of compute and streaming; compare against its compute component
	// (N cycles).
	n := float64(w * h)
	analyticCycles := n + // color conversion pipeline
		(analytic.ClusterComputeTime+analytic.CenterUpdateTime)*cfg.Tech.ClockHz
	got := float64(fs.Cycles)
	if r := math.Abs(got-analyticCycles) / analyticCycles; r > 0.06 {
		t.Fatalf("functional %.0f vs analytic %.0f cycles (%.1f%% apart)",
			got, analyticCycles, 100*r)
	}
}

// TestFuncSimSubsamplingCutsWork verifies that ratio 0.5 halves distance
// calculations and pixel traffic in the functional pipeline.
func TestFuncSimSubsamplingCutsWork(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	run := func(ratio float64) *FuncSim {
		cfg := funcTestConfig(w, h, k)
		cfg.Passes = 8 // whole iterations at both ratios
		cfg.SubsampleRatio = ratio
		fs, err := NewFuncSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Run(im); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	full := run(1)
	half := run(0.5)
	ratio := float64(full.DistanceCalcs) / float64(half.DistanceCalcs)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("distance calc reduction %.2f, want ~2", ratio)
	}
	if half.DRAMBytes >= full.DRAMBytes {
		t.Error("subsampling did not reduce traffic")
	}
}

// TestFuncSimClusterConfigScalesCycles verifies that the functional
// pipeline's cycle count scales with the configured initiation interval:
// iterative cluster units take ~9× the per-pixel cycles of the 9-9-6.
func TestFuncSimClusterConfigScalesCycles(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	cycles := func(cl ClusterConfig) int64 {
		cfg := funcTestConfig(w, h, k)
		cfg.Cluster = cl
		fs, err := NewFuncSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Run(im); err != nil {
			t.Fatal(err)
		}
		return fs.Cycles
	}
	fast := cycles(Config996)
	slow := cycles(Config111)
	// Per-pixel cluster work is 9× slower; fixed costs (color conversion,
	// center update) dilute the ratio.
	if ratio := float64(slow) / float64(fast); ratio < 1.5 {
		t.Fatalf("1-1-1 only %.2f× slower than 9-9-6 in functional sim", ratio)
	}
	// Labels must be identical: parallelism changes timing, not values.
	cfgA := funcTestConfig(w, h, k)
	cfgA.Cluster = Config996
	fsA, _ := NewFuncSim(cfgA)
	la, _ := fsA.Run(im)
	cfgB := funcTestConfig(w, h, k)
	cfgB.Cluster = Config111
	fsB, _ := NewFuncSim(cfgB)
	lb, _ := fsB.Run(im)
	for i := range la.Labels {
		if la.Labels[i] != lb.Labels[i] {
			t.Fatal("cluster parallelism changed functional results")
		}
	}
}

// TestFuncSimTimeSeconds sanity-checks the cycle-to-time conversion.
func TestFuncSimTimeSeconds(t *testing.T) {
	cfg := funcTestConfig(96, 64, 24)
	fs, err := NewFuncSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, 96, 64)
	if _, err := fs.Run(im); err != nil {
		t.Fatal(err)
	}
	want := float64(fs.Cycles) / cfg.Tech.ClockHz
	if fs.TimeSeconds() != want {
		t.Fatalf("TimeSeconds %g, want %g", fs.TimeSeconds(), want)
	}
}

// TestPowerBreakdownConsistent checks that the itemized power sums to
// the reported total for several design points.
func TestPowerBreakdownConsistent(t *testing.T) {
	for _, buf := range []int{1024, 4096, 65536} {
		cfg := DefaultConfig()
		cfg.BufferBytesPerChannel = buf
		r, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(r.PowerBreakdown.Total(), r.PowerWatts) > 1e-12 {
			t.Fatalf("buf %d: breakdown %.4f != total %.4f", buf,
				r.PowerBreakdown.Total(), r.PowerWatts)
		}
		if r.PowerBreakdown.Scratchpads <= 0 || r.PowerBreakdown.Cluster <= 0 {
			t.Fatalf("buf %d: missing breakdown items: %+v", buf, r.PowerBreakdown)
		}
	}
}

// TestFuncSimEnergyCrossCheck: bottom-up (counter-driven) and top-down
// (utilization-weighted) energy estimates must agree within a small
// factor — they share calibration constants but opposite methodologies.
func TestFuncSimEnergyCrossCheck(t *testing.T) {
	w, h, k := 192, 128, 96
	cfg := funcTestConfig(w, h, k)
	fs, err := NewFuncSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, w, h)
	if _, err := fs.Run(im); err != nil {
		t.Fatal(err)
	}
	bottomUp := fs.EnergyJoules(cfg.Tech)
	analytic, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topDown := analytic.EnergyPerFrame
	ratio := bottomUp / topDown
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("bottom-up %.3g J vs top-down %.3g J (ratio %.2f) — models diverged",
			bottomUp, topDown, ratio)
	}
}
