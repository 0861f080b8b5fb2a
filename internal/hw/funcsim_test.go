package hw

import (
	"context"
	"fmt"
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
	if _, _, err := fs.Run(imgio.NewImage(50, 50)); err == nil {
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
	labels, r, err := fs.Run(im)
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
	if r.Work.DistanceCalcs == 0 || r.Cycles == 0 || r.TrafficBytes == 0 || r.DividerOps == 0 {
		t.Fatal("report counts empty")
	}
}

func TestFuncSimDeterministic(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	run := func() (*imgio.LabelMap, float64) {
		fs, err := NewFuncSim(funcTestConfig(w, h, k))
		if err != nil {
			t.Fatal(err)
		}
		labels, r, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		return labels, r.Cycles
	}
	l1, c1 := run()
	l2, c2 := run()
	if c1 != c2 {
		t.Fatalf("cycle counts differ: %g vs %g", c1, c2)
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
		hwLabels, r, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		p := sslic.DefaultParams(k, ratio)
		p.FullIters = int(float64(cfg.Passes) * ratio)
		p.PerturbCenters = false
		p.EnforceConnectivity = false
		p.Datapath = sslic.Coded(8)
		sw, err := sslic.Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hwLabels.Labels {
			if hwLabels.Labels[i] != sw.Labels.Labels[i] {
				t.Fatalf("ratio %g: pixel %d labelled %d, software %d", ratio, i, hwLabels.Labels[i], sw.Labels.Labels[i])
			}
		}
		if r.Work.DistanceCalcs != sw.Stats.DistanceCalcs {
			t.Fatalf("ratio %g: %d distance calcs, software %d", ratio, r.Work.DistanceCalcs, sw.Stats.DistanceCalcs)
		}
	}
}

// TestFuncSimReuse: a second Run on the same simulator starts the FSM
// from idle, labels the frame identically, and prices exactly one more
// frame: its report equals the first, and observing both doubles every
// count.
func TestFuncSimReuse(t *testing.T) {
	fs, err := NewFuncSim(funcTestConfig(96, 64, 24))
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, 96, 64)
	m := NewMetrics(telemetry.NewRegistry())
	// counts reads the FSM's visits and what the observed reports
	// charged to the telemetry.
	counts := func() [6]float64 {
		return [6]float64{float64(fs.FSM().Visits(StateLoadTile)), float64(fs.FSM().Visits(StateCenterUpdate)),
			m.DRAMBytes.Value(), m.ScratchHits.Value(), m.ScratchMisses.Value(), m.Energy.TotalPicojoules()}
	}
	first, r1, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveReport(context.Background(), r1)
	one := counts()
	second, r2, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveReport(context.Background(), r2)
	two := counts()
	for i := range first.Labels {
		if first.Labels[i] != second.Labels[i] {
			t.Fatalf("pixel %d: second run labelled %d, first %d", i, second.Labels[i], first.Labels[i])
		}
	}
	if *r2 != *r1 {
		t.Errorf("second report\n%+v\nfirst\n%+v", *r2, *r1)
	}
	for i := range one {
		if relErr(two[i], 2*one[i]) > 1e-12 || one[i] == 0 {
			t.Errorf("count %d: %g after two runs, %g after one", i, two[i], one[i])
		}
	}
	if fs.FSM().State() != StateDone {
		t.Fatalf("final FSM state %v, want done", fs.FSM().State())
	}
}

// TestFuncSimReportMatchesSimulate is the functional simulator's exact
// oracle. On whole-iteration frames whose grid K is K, a frame's own work
// is Simulate's nominal work but for the distance calcs (border tiles
// have fewer than nine candidates), so the two reports agree on every
// time, traffic, burst, scratchpad, divider and top-down energy field.
// The calcs, and the bottom-up energy they feed, may only fall.
func TestFuncSimReportMatchesSimulate(t *testing.T) {
	cases := []struct {
		w, h, k, buffer, passes int
		ratio                   float64
	}{
		{96, 64, 24, 1024, 8, 1},
		{96, 64, 24, 1024, 8, 0.5},
		{96, 64, 24, 1024, 8, 0.25},
		{192, 128, 96, 1024, 9, 1},
		{64, 48, 12, 256, 2, 1},
	}
	for _, cl := range []ClusterConfig{Config996, Config111} {
		for _, tc := range cases {
			cfg := funcTestConfig(tc.w, tc.h, tc.k)
			cfg.BufferBytesPerChannel = tc.buffer
			cfg.Passes = tc.passes
			cfg.SubsampleRatio = tc.ratio
			cfg.Cluster = cl
			name := fmt.Sprintf("%v %dx%d K=%d ratio %g", cl, tc.w, tc.h, tc.k, tc.ratio)
			fs, err := NewFuncSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := fs.Run(funcTestImage(t, tc.w, tc.h))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Work.DistanceCalcs <= 0 || got.Work.DistanceCalcs > want.Work.DistanceCalcs ||
				got.EnergyBottomUp > want.EnergyBottomUp {
				t.Errorf("%s: %d calcs and %g J bottom-up, nominal %d and %g J", name,
					got.Work.DistanceCalcs, got.EnergyBottomUp, want.Work.DistanceCalcs, want.EnergyBottomUp)
			}
			g := *got
			g.Work.DistanceCalcs, g.EnergyBottomUp = want.Work.DistanceCalcs, want.EnergyBottomUp
			if g != *want {
				t.Errorf("%s: report\n got %+v\nwant %+v", name, g, *want)
			}
		}
	}
}

// TestFuncSimSubsamplingCutsWork verifies that ratio 0.5 halves distance
// calculations and pixel traffic in the functional pipeline.
func TestFuncSimSubsamplingCutsWork(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	run := func(ratio float64) *Report {
		cfg := funcTestConfig(w, h, k)
		cfg.Passes = 8 // whole iterations at both ratios
		cfg.SubsampleRatio = ratio
		fs, err := NewFuncSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := run(1)
	half := run(0.5)
	ratio := float64(full.Work.DistanceCalcs) / float64(half.Work.DistanceCalcs)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("distance calc reduction %.2f, want ~2", ratio)
	}
	if half.TrafficBytes >= full.TrafficBytes {
		t.Error("subsampling did not reduce traffic")
	}
}

// TestFuncSimClusterConfigScalesCycles verifies that the functional
// pipeline's cycle count scales with the configured initiation interval:
// iterative cluster units take ~9× the per-pixel cycles of the 9-9-6.
func TestFuncSimClusterConfigScalesCycles(t *testing.T) {
	w, h, k := 96, 64, 24
	im := funcTestImage(t, w, h)
	cycles := func(cl ClusterConfig) float64 {
		cfg := funcTestConfig(w, h, k)
		cfg.Cluster = cl
		fs, err := NewFuncSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := fs.Run(im)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	fast := cycles(Config996)
	slow := cycles(Config111)
	// Per-pixel cluster work is 9× slower; fixed costs (color conversion,
	// center update) dilute the ratio.
	if ratio := slow / fast; ratio < 1.5 {
		t.Fatalf("1-1-1 only %.2f× slower than 9-9-6 in functional sim", ratio)
	}
	// Labels must be identical: parallelism changes timing, not values.
	cfgA := funcTestConfig(w, h, k)
	cfgA.Cluster = Config996
	fsA, _ := NewFuncSim(cfgA)
	la, _, _ := fsA.Run(im)
	cfgB := funcTestConfig(w, h, k)
	cfgB.Cluster = Config111
	fsB, _ := NewFuncSim(cfgB)
	lb, _, _ := fsB.Run(im)
	for i := range la.Labels {
		if la.Labels[i] != lb.Labels[i] {
			t.Fatal("cluster parallelism changed functional results")
		}
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
	_, r, err := fs.Run(im)
	if err != nil {
		t.Fatal(err)
	}
	bottomUp := r.EnergyBottomUp
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
