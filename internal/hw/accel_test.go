package hw

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.K = 1 << 30 },
		func(c *Config) { c.Cluster.DistWays = 5 },
		func(c *Config) { c.BufferBytesPerChannel = 64 },
		func(c *Config) { c.Passes = 0 },
		func(c *Config) { c.SubsampleRatio = 0 },
		func(c *Config) { c.SubsampleRatio = 2 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Tech.ClockHz = 0 },
		func(c *Config) { c.Tech.DRAMEffectiveBandwidth = 0 },
		func(c *Config) { c.Tech.DRAMLatencyCycles = -1 },
		func(c *Config) { c.DividerCyclesPerField = 0 },
	}
	for i, m := range mutations {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Simulate(c); err == nil {
			t.Errorf("mutation %d simulated", i)
		}
	}
}

// TestSection7Decomposition pins the paper's §7 latency analysis for the
// default HD configuration: color conversion ≈1.4 ms, cluster update
// computation ≈20.3 ms (cluster pipeline + center updates), memory
// ≈11.1 ms, total ≈32.8 ms at ≥30 fps.
func TestSection7Decomposition(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if relErr(r.ColorConvTime, 1.4e-3) > 0.12 {
		t.Errorf("color conversion %.2f ms, want ~1.4", r.ColorConvTime*1e3)
	}
	compute := r.ClusterComputeTime + r.CenterUpdateTime
	if relErr(compute, 20.3e-3) > 0.05 {
		t.Errorf("cluster+center compute %.2f ms, want ~20.3", compute*1e3)
	}
	if relErr(r.ClusterMemTime, 11.1e-3) > 0.05 {
		t.Errorf("memory time %.2f ms, want ~11.1", r.ClusterMemTime*1e3)
	}
	if relErr(r.TotalTime, 32.8e-3) > 0.03 {
		t.Errorf("total %.2f ms, want ~32.8", r.TotalTime*1e3)
	}
	if !r.RealTime {
		t.Error("default HD configuration must be real-time")
	}
}

// TestTable4HDRow pins the physical summary of Table 4's HD column.
func TestTable4HDRow(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if relErr(r.AreaMM2, 0.066) > 0.03 {
		t.Errorf("area %.4f mm², want ~0.066", r.AreaMM2)
	}
	if relErr(r.PowerWatts, 49e-3) > 0.05 {
		t.Errorf("power %.1f mW, want ~49", r.PowerWatts*1e3)
	}
	if relErr(r.EnergyPerFrame, 1.6e-3) > 0.05 {
		t.Errorf("energy %.2f mJ/frame, want ~1.6", r.EnergyPerFrame*1e3)
	}
	if relErr(r.PerfPerArea, 461) > 0.03 {
		t.Errorf("perf/area %.0f fps/mm², want ~461", r.PerfPerArea)
	}
	if r.OnChipBytes != 16384 {
		t.Errorf("on-chip bytes %d, want 16384", r.OnChipBytes)
	}
}

// TestFigure6RealTimeCrossing checks §6.3: 1-2 kB buffers miss real time,
// 4 kB and above make it, and larger buffers yield only slightly better
// frame times.
func TestFigure6RealTimeCrossing(t *testing.T) {
	frameTime := func(bufBytes int) float64 {
		cfg := DefaultConfig()
		cfg.BufferBytesPerChannel = bufBytes
		r, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.TotalTime
	}
	if fps := 1 / frameTime(1024); fps >= 30 {
		t.Errorf("1 kB buffer reaches %.1f fps, want < 30", fps)
	}
	if fps := 1 / frameTime(2048); fps >= 30 {
		t.Errorf("2 kB buffer reaches %.1f fps, want < 30", fps)
	}
	if fps := 1 / frameTime(4096); fps < 30 {
		t.Errorf("4 kB buffer reaches only %.1f fps, want >= 30", fps)
	}
	// Monotone improvement with diminishing returns.
	prev := frameTime(1024)
	for _, kb := range []int{2, 4, 8, 16, 32, 64, 128} {
		cur := frameTime(kb * 1024)
		if cur > prev {
			t.Errorf("frame time increased at %d kB", kb)
		}
		prev = cur
	}
	if gain := frameTime(4096) - frameTime(128*1024); gain > 2e-3 {
		t.Errorf("4→128 kB saves %.2f ms; paper says only slightly better", gain*1e3)
	}
}

// TestFigure6MemoryFraction checks §6.3's "memory access takes 35% of
// total execution time" at the 4 kB design point.
func TestFigure6MemoryFraction(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	frac := r.ClusterMemTime / r.TotalTime
	if frac < 0.30 || frac > 0.40 {
		t.Errorf("memory fraction %.2f, want ~0.35", frac)
	}
}

// TestResolutionScaling checks the Table 4 trend: smaller frames mean
// lower latency, higher fps, lower energy per frame.
func TestResolutionScaling(t *testing.T) {
	resolutions := []struct{ w, h int }{{1920, 1080}, {1280, 768}, {640, 480}}
	prevLat, prevEn := 1e9, 1e9
	for _, res := range resolutions {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = res.w, res.h
		cfg.BufferBytesPerChannel = 1024
		r, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalTime >= prevLat {
			t.Errorf("%dx%d latency did not drop", res.w, res.h)
		}
		if r.EnergyPerFrame >= prevEn {
			t.Errorf("%dx%d energy did not drop", res.w, res.h)
		}
		prevLat, prevEn = r.TotalTime, r.EnergyPerFrame
	}
}

// TestSubsamplingReducesTrafficAndTime verifies that a ratio-0.5 run
// moves roughly half the pixel traffic per pass and shortens cluster
// compute time.
func TestSubsamplingReducesTrafficAndTime(t *testing.T) {
	full, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SubsampleRatio = 0.5
	half, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(full.TrafficBytes) / float64(half.TrafficBytes)
	// Pixel traffic halves; per-tile center/sigma overhead doesn't, so
	// the factor lands a bit under 2 — the abstract's 1.8×.
	if ratio < 1.7 || ratio > 2.0 {
		t.Errorf("traffic reduction %.2f, want ~1.8-2.0", ratio)
	}
	if half.ClusterComputeTime >= full.ClusterComputeTime {
		t.Error("subsampling did not reduce cluster compute time")
	}
	if half.CenterUpdateTime != full.CenterUpdateTime {
		t.Error("center update cost must not depend on the pixel subset")
	}
}

// TestMoreCoresFaster verifies the cores knob of the DSE.
func TestMoreCoresFaster(t *testing.T) {
	one, _ := Simulate(DefaultConfig())
	cfg := DefaultConfig()
	cfg.Cores = 2
	two, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.ClusterComputeTime >= one.ClusterComputeTime {
		t.Error("2 cores not faster than 1")
	}
	if two.AreaMM2 <= one.AreaMM2 {
		t.Error("2 cores must cost more area")
	}
}

// TestSlowerClusterConfigsSlower confirms the iterative configurations
// miss real time at HD, motivating the 9-9-6 choice (§6.2).
func TestSlowerClusterConfigsSlower(t *testing.T) {
	for _, cl := range []ClusterConfig{Config111, Config911, Config191, Config116} {
		cfg := DefaultConfig()
		cfg.Cluster = cl
		r, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.RealTime {
			t.Errorf("%v reaches real time at HD; only 9-9-6 should", cl)
		}
	}
}

// TestReportInternallyConsistent cross-checks derived fields.
func TestReportInternallyConsistent(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ColorConvTime + r.ClusterComputeTime + r.ClusterMemTime + r.CenterUpdateTime
	if relErr(sum, r.TotalTime) > 1e-9 {
		t.Error("phase times do not sum to total")
	}
	if relErr(r.FPS, 1/r.TotalTime) > 1e-9 {
		t.Error("FPS inconsistent")
	}
	if relErr(r.EnergyPerFrame, r.PowerWatts*r.TotalTime) > 1e-9 {
		t.Error("energy inconsistent")
	}
	if r.Transfers <= 0 || r.TrafficBytes <= 0 {
		t.Error("traffic accounting empty")
	}
}

// TestStreamFPSPipelinesColorConversion: streaming throughput must beat
// single-frame latency by overlapping the color conversion stage, and
// never exceed the cluster-stage bound.
func TestStreamFPSPipelinesColorConversion(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.StreamFPS <= r.FPS {
		t.Fatalf("stream fps %.2f not above frame fps %.2f", r.StreamFPS, r.FPS)
	}
	bound := 1 / (r.ClusterComputeTime + r.ClusterMemTime + r.CenterUpdateTime)
	if relErr(r.StreamFPS, bound) > 1e-9 {
		t.Fatalf("stream fps %.2f, want stage bound %.2f", r.StreamFPS, bound)
	}
}

// TestAreaBreakdownConsistent mirrors the power breakdown check.
func TestAreaBreakdownConsistent(t *testing.T) {
	r, err := Simulate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if relErr(r.AreaBreakdown.Total(), r.AreaMM2) > 1e-12 {
		t.Fatal("area breakdown does not sum to total")
	}
	if r.AreaBreakdown.Scratchpads <= r.AreaBreakdown.FSM {
		t.Fatal("16 kB of SRAM must outweigh the FSM")
	}
}

// TestSimulateExact pins Simulate's DRAM account and the figures it
// reaches, bit for bit: traffic and bursts exactly, and the memory time,
// frame time and energy as shortest round-trip float strings. The warm
// rows are the streaming service's per-frame energy charges.
func TestSimulateExact(t *testing.T) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	cases := []struct {
		name                    string
		mutate                  func(*Config)
		traffic, transfers      int64
		memTime, total, energyJ string
	}{
		{"hd default", func(c *Config) {},
			101814300, 5070, "0.011388887867647059", "0.032994116617647055", "0.001611537006807794"},
		{"streams warm", func(c *Config) {
			c.Width, c.Height, c.K = 640, 480, 900
			c.SubsampleRatio, c.Passes = 0.5, 6
		}, 5754600, 525, "0.0005826507352941176", "0.0023800569852941177", "0.00010396998284558823"},
		{"hd_pipeline warm", func(c *Config) {
			c.Width, c.Height, c.K = 1280, 720, 900
			c.SubsampleRatio, c.Passes = 0.5, 6
		}, 17263800, 1575, "0.001747952205882353", "0.0051556084558823535", "0.0002496265015367648"},
		{"hd_pipeline cold", func(c *Config) {
			c.Width, c.Height, c.K = 1280, 720, 900
			c.SubsampleRatio, c.Passes = 0.5, 20
		}, 51094800, 4725, "0.005826507352941177", "0.015841288602941178", "0.0007912500269558825"},
		// Each tile visits a truncated third of its pixels: 1970 a pass,
		// not n/3, priced alike in compute, traffic and scratchpad.
		{"ragged", func(c *Config) {
			c.Width, c.Height, c.K = 97, 61, 13
			c.BufferBytesPerChannel = 1000
			c.SubsampleRatio = 1.0 / 3
			c.Cluster = Config111
			c.Cores = 3
		}, 133401, 60, "1.5293382352941176e-05", "7.747298529411765e-05", "1.7324338976470588e-06"},
		{"table4 vga", func(c *Config) {
			c.Width, c.Height = 640, 480
			c.BufferBytesPerChannel = 1024
			c.Tech.ClockHz = 0.9e9
		}, 16095600, 3000, "0.0019351764705882353", "0.020444565359477123", "0.00045388494850980384"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			r, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.TrafficBytes != tc.traffic || r.Transfers != tc.transfers {
				t.Errorf("traffic %d B in %d bursts, want %d B in %d",
					r.TrafficBytes, r.Transfers, tc.traffic, tc.transfers)
			}
			if got := g(r.ClusterMemTime); got != tc.memTime {
				t.Errorf("cluster memory time %s, want %s", got, tc.memTime)
			}
			if got := g(r.TotalTime); got != tc.total {
				t.Errorf("total time %s, want %s", got, tc.total)
			}
			if got := g(r.EnergyPerFrame); got != tc.energyJ {
				t.Errorf("energy %s J, want %s", got, tc.energyJ)
			}
		})
	}
}

// lessWork is a random valid configuration with two works on it: Less
// lowers some of More's passes, visited pixels, centres and distance
// calcs, and keeps the rest.
type lessWork struct {
	Cfg        Config
	More, Less Work
}

func (lessWork) Generate(r *rand.Rand, _ int) reflect.Value {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 1+r.Intn(2000), 1+r.Intn(1200)
	n := cfg.Width * cfg.Height
	cfg.K = 1 + r.Intn(min(n, 6000))
	cfg.Cluster = Table3Configs()[r.Intn(5)]
	cfg.BufferBytesPerChannel = 256 + r.Intn(64*1024)
	cfg.Passes = 1 + r.Intn(20)
	cfg.SubsampleRatio = 1 / float64(1+r.Intn(4))
	cfg.Cores = 1 + r.Intn(4)
	lower := func(v int64, floor int64) int64 {
		if v <= floor || r.Intn(2) == 0 {
			return v
		}
		return floor + r.Int63n(v-floor)
	}
	more := Work{Passes: 1 + r.Intn(20), Centers: 1 + r.Intn(cfg.K)}
	more.Visited = r.Int63n(int64(more.Passes)*int64(n) + 1)
	more.DistanceCalcs = r.Int63n(9*more.Visited + 1)
	less := Work{
		Passes:  int(lower(int64(more.Passes), 1)),
		Centers: int(lower(int64(more.Centers), 1)),
	}
	less.Visited = lower(min(more.Visited, int64(less.Passes)*int64(n)), 0)
	less.DistanceCalcs = lower(min(more.DistanceCalcs, 9*less.Visited), 0)
	return reflect.ValueOf(lessWork{cfg, more, less})
}

// TestPriceNeverRisesWhenWorkFalls: a frame that does less — a cut pass
// budget, a preempted pass, fewer visited pixels or centres — never
// prices higher in time, traffic, bursts, scratchpad accesses or either
// energy.
func TestPriceNeverRisesWhenWorkFalls(t *testing.T) {
	prop := func(c lessWork) bool {
		if err := c.Cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		more, less := price(c.Cfg, c.More), price(c.Cfg, c.Less)
		ok := less.TotalTime <= more.TotalTime &&
			less.Cycles <= more.Cycles &&
			less.TrafficBytes <= more.TrafficBytes &&
			less.Transfers <= more.Transfers &&
			less.ScratchReads+less.ScratchWrites <= more.ScratchReads+more.ScratchWrites &&
			less.EnergyPerFrame <= more.EnergyPerFrame &&
			less.EnergyBottomUp <= more.EnergyBottomUp
		if !ok {
			t.Logf("%+v\nless %+v\nmore %+v", c.Cfg, *less, *more)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
