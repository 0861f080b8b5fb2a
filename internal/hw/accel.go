package hw

import (
	"fmt"

	"sslic/internal/energy"
)

// Config describes a complete accelerator instance plus the workload it
// runs. DefaultConfig reproduces the paper's best HD configuration
// (Table 4, first column).
type Config struct {
	// Width, Height, K describe the workload: image size and superpixel
	// count.
	Width, Height, K int
	// Cluster selects the Cluster Update Unit parallelism.
	Cluster ClusterConfig
	// BufferBytesPerChannel sizes each of the four scratchpads (three
	// color channels + index). One byte holds one pixel's channel value,
	// so this is also the tile size in pixels.
	BufferBytesPerChannel int
	// Passes is the number of cluster-update passes over the (sub)image.
	// The paper's §7 latency analysis runs 9.
	Passes int
	// SubsampleRatio scales the pixels visited per pass (S-SLIC); 1 means
	// every pass touches the whole image.
	SubsampleRatio float64
	// Cores multiplies cluster-update throughput (the DSE varies it; all
	// Table 4 designs use 1).
	Cores int
	// Tech supplies the technology constants.
	Tech energy.Tech
	// DividerCyclesPerField is the iterative divider latency for one
	// sigma field average (default 48: a serial divider on the wide
	// accumulators).
	DividerCyclesPerField int
	// CenterOverheadCycles is the per-center fixed cost in the Center
	// Update Unit (default 6).
	CenterOverheadCycles int
	// TileOverheadCycles is the per-tile FSM/center/sigma shuffling cost
	// in the cluster update (default 125).
	TileOverheadCycles int
}

// DefaultConfig returns the paper's best full-HD configuration: 9-9-6
// cluster unit, 4 kB channel buffers, K=5000, 9 passes, single core.
func DefaultConfig() Config {
	return Config{
		Width: 1920, Height: 1080, K: 5000,
		Cluster:               Config996,
		BufferBytesPerChannel: 4096,
		Passes:                9,
		SubsampleRatio:        1,
		Cores:                 1,
		Tech:                  energy.Default16nm(),
		DividerCyclesPerField: 48,
		CenterOverheadCycles:  6,
		TileOverheadCycles:    125,
	}
}

// Validate reports whether the configuration is simulatable.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("hw: invalid resolution %dx%d", c.Width, c.Height)
	}
	if c.K < 1 || c.K > c.Width*c.Height {
		return fmt.Errorf("hw: K = %d out of range", c.K)
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.BufferBytesPerChannel < 256 {
		return fmt.Errorf("hw: buffer %d B too small (min 256)", c.BufferBytesPerChannel)
	}
	if c.Passes < 1 {
		return fmt.Errorf("hw: passes = %d", c.Passes)
	}
	if c.SubsampleRatio <= 0 || c.SubsampleRatio > 1 {
		return fmt.Errorf("hw: subsample ratio %g out of (0, 1]", c.SubsampleRatio)
	}
	if c.Cores < 1 {
		return fmt.Errorf("hw: cores = %d", c.Cores)
	}
	if c.Tech.ClockHz <= 0 {
		return fmt.Errorf("hw: clock %g Hz", c.Tech.ClockHz)
	}
	if c.Tech.DRAMEffectiveBandwidth <= 0 || c.Tech.DRAMLatencyCycles < 0 {
		return fmt.Errorf("hw: DRAM bandwidth %g B/s, latency %d cycles",
			c.Tech.DRAMEffectiveBandwidth, c.Tech.DRAMLatencyCycles)
	}
	if c.DividerCyclesPerField < 1 || c.CenterOverheadCycles < 0 || c.TileOverheadCycles < 0 {
		return fmt.Errorf("hw: invalid cycle overheads")
	}
	return nil
}

// Work is what one frame asks of the accelerator: the counts its
// account prices.
type Work struct {
	// Passes is the number of cluster-update passes; a centre update
	// follows each.
	Passes int
	// Visited is the pixels the Cluster Update Unit takes in, summed over
	// the passes.
	Visited int64
	// Centers is the number of superpixels the Center Update Unit
	// averages after every pass.
	Centers int
	// DistanceCalcs is the Eq-5 evaluations behind those visits.
	DistanceCalcs int64
}

// Report is the outcome of pricing one frame.
type Report struct {
	// Work is the frame's work the report prices.
	Work Work

	// Per-phase times in seconds (§7's latency decomposition).
	ColorConvTime      float64
	ClusterComputeTime float64
	ClusterMemTime     float64
	CenterUpdateTime   float64
	TotalTime          float64

	// Cycles is the units' compute cycles: colour conversion at one pixel
	// per cycle, the cluster passes and the centre updates, memory time
	// aside. Cores split the pixel streams, so it need not be whole.
	Cycles float64

	// FPS is 1/TotalTime; RealTime is FPS ≥ 30.
	FPS      float64
	RealTime bool
	// StreamFPS is the sustained frame rate when consecutive frames are
	// pipelined: the color conversion unit processes frame n+1 while the
	// cluster/center units work on frame n, so the steady-state period
	// is the slower of the two stages rather than their sum.
	StreamFPS float64

	// TrafficBytes is the external memory traffic per frame; Transfers
	// the number of bursts.
	TrafficBytes int64
	Transfers    int64
	// ScratchReads and ScratchWrites are the on-chip scratchpad port
	// activity per frame: colour conversion fills, reads, writes and
	// drains each pixel's three channels, and every visited pixel reads
	// its three channels and writes its index. Together with Transfers
	// (the burst/miss count) they drive the telemetry hit-rate gauge.
	ScratchReads, ScratchWrites int64
	// DividerOps is the Center Update Unit's divisions: six sigma fields
	// per centre per pass.
	DividerOps int64

	// Physical estimates.
	AreaMM2        float64
	PowerWatts     float64
	EnergyPerFrame float64
	OnChipBytes    int

	// EnergyBottomUp cross-checks EnergyPerFrame from the other end: the
	// same counts at the calibrated per-operation energy, plus leakage
	// and scratchpad background power over the frame. The two share
	// constants but not method, so their agreement within a small factor
	// validates both.
	EnergyBottomUp float64

	// PerfPerArea is FPS per mm² (Table 4's last row).
	PerfPerArea float64

	// PowerBreakdown itemizes the utilization-weighted power by unit
	// (watts): cluster update, color conversion, center update,
	// scratchpads, FSM, DRAM interface.
	PowerBreakdown PowerBreakdown
	// AreaBreakdown itemizes silicon area by unit (mm²).
	AreaBreakdown AreaBreakdown
}

// AreaBreakdown itemizes accelerator area by unit, in mm².
type AreaBreakdown struct {
	Cluster      float64
	Scratchpads  float64
	ColorConv    float64
	CenterUpdate float64
	FSM          float64
}

// Total sums the breakdown.
func (a AreaBreakdown) Total() float64 {
	return a.Cluster + a.Scratchpads + a.ColorConv + a.CenterUpdate + a.FSM
}

// PowerBreakdown itemizes accelerator power by unit, in watts.
type PowerBreakdown struct {
	Cluster       float64
	ColorConv     float64
	CenterUpdate  float64
	Scratchpads   float64
	FSM           float64
	DRAMInterface float64
}

// Total sums the breakdown.
func (p PowerBreakdown) Total() float64 {
	return p.Cluster + p.ColorConv + p.CenterUpdate + p.Scratchpads + p.FSM + p.DRAMInterface
}

// bytes moved per visited pixel per pass: Lab read (3 channels) plus index
// read and write.
const bytesPerVisitedPixel = 5

// bytesPerTileOverhead is the per-tile center/sigma traffic: 9 center
// descriptors in, 9 sigma accumulator sets in and out, new assignments of
// the tile's centers back.
const bytesPerTileOverhead = 500

// Simulate prices one frame at the configuration's nominal work and
// returns the report. The model reproduces the paper's §7 decomposition
// on the default configuration: ≈1.4 ms color conversion, ≈20.3 ms
// cluster and center computation, ≈11.1 ms memory time, ≈32.8 ms total.
func Simulate(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return price(cfg, nominalWork(cfg)), nil
}

// nominalWork is the work the configuration schedules: every pass visits
// each buffer tile's pixel count times the ratio, truncated (all tiles
// are full but the last), nine candidate distances per visited pixel,
// and K centres.
func nominalWork(cfg Config) Work {
	n, tile := cfg.Width*cfg.Height, cfg.BufferBytesPerChannel
	full := (n - 1) / tile
	tileVisited := func(px int) int64 { return int64(float64(px) * cfg.SubsampleRatio) }
	visited := int64(cfg.Passes) * (int64(full)*tileVisited(tile) + tileVisited(n-full*tile))
	return Work{Passes: cfg.Passes, Visited: visited, Centers: cfg.K, DistanceCalcs: 9 * visited}
}

// bufferTiles is how many buffer tiles a frame streams through the
// scratchpads: its pixels over the per-channel buffer, rounded up. Each
// is one burst of colour conversion and one fill and drain per pass.
func bufferTiles(cfg Config) int64 {
	return int64((cfg.Width*cfg.Height + cfg.BufferBytesPerChannel - 1) / cfg.BufferBytesPerChannel)
}

// price is the accelerator's one account: it charges a frame's work on
// the configured design, phase by phase, into a report.
func price(cfg Config, w Work) *Report {
	t := cfg.Tech
	n := cfg.Width * cfg.Height
	numTiles := bufferTiles(cfg)
	passes := int64(w.Passes)

	// External memory moves one burst per tile fill, each costing its
	// bytes at the sustained bandwidth plus one access latency.
	transferTime := func(bytes, bursts int64) float64 {
		return float64(bytes)/t.DRAMEffectiveBandwidth +
			float64(bursts)*float64(t.DRAMLatencyCycles)/t.ClockHz
	}

	r := &Report{Work: w}

	// Phase 1: color conversion. The unit is pipelined at 1 pixel/cycle;
	// RGB streaming from DRAM (3 bytes per pixel, one burst per tile)
	// overlaps with computation, so the phase time is the maximum of the
	// two plus the first burst's latency. This is the phase §7 puts at
	// ≈1.4 ms; the account charges no separate Lab write-back.
	ccBytes, ccBursts := int64(3*n), numTiles
	ccCycles := float64(n) / float64(cfg.Cores)
	ccTime := ccCycles / t.ClockHz
	if mt := transferTime(ccBytes, ccBursts); mt > ccTime {
		ccTime = mt
	}
	ccTime += float64(t.DRAMLatencyCycles) / t.ClockHz // first-burst startup
	r.ColorConvTime = ccTime

	// Phase 2: cluster update passes. Per pass: every buffer tile streams
	// in with its center/sigma state in one burst, the visited subset of
	// its pixels flows through the Cluster Update Unit at the configured
	// initiation interval, the pipeline drains and the FSM shuffles the
	// tile's centers, and the index plane streams back.
	clusterCycles := float64(w.Visited)*float64(cfg.Cluster.InitiationInterval())/float64(cfg.Cores) +
		float64(passes*numTiles)*float64(cfg.Cluster.LatencyCycles()+cfg.TileOverheadCycles)
	memBytes := bytesPerVisitedPixel*w.Visited + passes*numTiles*bytesPerTileOverhead
	memBursts := passes * numTiles
	r.ClusterComputeTime = clusterCycles / t.ClockHz
	r.ClusterMemTime = transferTime(memBytes, memBursts)

	// Phase 3: center updates after every pass. The Center Update Unit
	// averages six sigma fields per superpixel on an iterative divider.
	// The new centres travel with each tile's overhead bytes, so the
	// update itself moves none.
	centerCycles := float64(passes) * float64(w.Centers) *
		float64(6*cfg.DividerCyclesPerField+cfg.CenterOverheadCycles)
	r.CenterUpdateTime = centerCycles / t.ClockHz
	r.DividerOps = 6 * passes * int64(w.Centers)

	r.Cycles = ccCycles + clusterCycles + centerCycles
	r.TotalTime = r.ColorConvTime + r.ClusterComputeTime + r.ClusterMemTime + r.CenterUpdateTime
	r.FPS = 1 / r.TotalTime
	r.RealTime = r.FPS >= 30
	stagePeriod := r.ClusterComputeTime + r.ClusterMemTime + r.CenterUpdateTime
	if r.ColorConvTime > stagePeriod {
		stagePeriod = r.ColorConvTime
	}
	r.StreamFPS = 1 / stagePeriod

	r.TrafficBytes = memBytes + ccBytes
	r.Transfers = memBursts + ccBursts
	r.ScratchReads = int64(6*n) + 3*w.Visited
	r.ScratchWrites = int64(6*n) + w.Visited

	// Physical estimates.
	r.OnChipBytes = 4 * cfg.BufferBytesPerChannel
	r.AreaBreakdown = AreaBreakdown{
		Cluster:      float64(cfg.Cores) * cfg.Cluster.AreaMM2(),
		Scratchpads:  t.SRAMAreaMM2(r.OnChipBytes),
		ColorConv:    energy.AreaColorConv,
		CenterUpdate: energy.AreaCenterUpdate,
		FSM:          energy.AreaFSM,
	}
	r.AreaMM2 = r.AreaBreakdown.Total()

	// Power: each unit's peak active power weighted by its duty cycle
	// (§6.3: "the power for each unit is computed using the peak active
	// power ... multiplying by the utilization"); the scratchpads and the
	// external memory interface are assumed at full utilization per the
	// same paragraph. The cluster unit stays clocked while tiles stream,
	// so its duty cycle spans compute and memory time.
	clusterUtil := (r.ClusterComputeTime + r.ClusterMemTime) / r.TotalTime
	ccUtil := r.ColorConvTime / r.TotalTime
	centerUtil := r.CenterUpdateTime / r.TotalTime
	r.PowerBreakdown = PowerBreakdown{
		Cluster:       float64(cfg.Cores) * cfg.Cluster.PowerWatts(t) * clusterUtil,
		ColorConv:     powerColorConv * ccUtil,
		CenterUpdate:  powerCenterUpdate * centerUtil,
		Scratchpads:   t.SRAMWatts(r.OnChipBytes),
		FSM:           powerFSM,
		DRAMInterface: powerDRAMInterface,
	}
	r.PowerWatts = r.PowerBreakdown.Total()
	r.EnergyPerFrame = r.PowerWatts * r.TotalTime
	r.PerfPerArea = r.FPS / r.AreaMM2

	// Bottom-up: 7 ops per Eq-5 evaluation, 6 sigma adds per visited
	// pixel, one single-bit step per divider cycle and one op-equivalent
	// per scratchpad access; the DRAM interface's power over the traffic's
	// streaming time; leakage and scratchpad background power over the
	// frame.
	ops := 7*w.DistanceCalcs + 6*w.Visited + r.DividerOps*int64(cfg.DividerCyclesPerField) +
		r.ScratchReads + r.ScratchWrites
	r.EnergyBottomUp = float64(ops)*t.EnergyPerOp +
		powerDRAMInterface*float64(r.TrafficBytes)/t.DRAMEffectiveBandwidth +
		(t.LeakageWatts(r.AreaMM2)+r.PowerBreakdown.Scratchpads)*r.TotalTime
	return r
}

// Unit active powers (watts), calibrated alongside the Table 4 total.
const (
	powerColorConv     = 4e-3
	powerCenterUpdate  = 5e-3
	powerFSM           = 2e-3
	powerDRAMInterface = 8e-3
)
