package hw

import (
	"fmt"

	"sslic/internal/energy"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
)

// FuncSim is the functional (bit-accurate) simulation of the
// accelerator: where Simulate is the analytic timing/energy model, a
// FuncSim runs the frame's pixels through the hardware datapath — the
// LUT color conversion unit and the Cluster Update Unit's 8-bit codes,
// saturating 8-bit distance codes and integer sigma sums: the fixed
// kernel of internal/sslic, which serves at width 0, run at CodeBits 8 —
// and produces the label map the silicon would produce. Its cycle, access and traffic
// counters depend on the frame's geometry alone, so it derives them in
// closed form from the same per-frame, per-pass, per-tile and
// per-visited-pixel charges as the host FSM's schedule, which it walks
// tile by tile.
type FuncSim struct {
	cfg Config
	p   sslic.Params
	fsm *FSM

	// Counters, accumulated by every Run since the simulator was built
	// or last observed (see Metrics.ObserveFuncSim).
	Cycles        int64
	ScratchReads  int64
	ScratchWrites int64
	DRAMBytes     int64
	DistanceCalcs int64
	DividerOps    int64
	// visited counts the pixels the cluster update visited; bursts the
	// scratchpad fills and drains, each one round trip to external memory.
	visited, bursts int64
}

// NewFuncSim builds a functional simulator for the configuration. Only
// single-core designs are functionally simulated, and the kernel runs
// whole iterations, so Passes must be a multiple of the subset count
// k = round(1/SubsampleRatio).
func NewFuncSim(cfg Config) (*FuncSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores != 1 {
		return nil, fmt.Errorf("hw: functional simulation supports 1 core, got %d", cfg.Cores)
	}
	p := sslic.DefaultParams(cfg.K, cfg.SubsampleRatio)
	if k := p.Subsets(); cfg.Passes%k != 0 {
		return nil, fmt.Errorf("hw: functional simulation runs whole iterations: %d passes is not a multiple of the %d subsets of ratio %g",
			cfg.Passes, k, cfg.SubsampleRatio)
	}
	// The accelerator seeds on the static grid and leaves connectivity
	// to the host (§4.1).
	p.FullIters = cfg.Passes / p.Subsets()
	p.PerturbCenters = false
	p.EnforceConnectivity = false
	p.Datapath = sslic.Fixed
	p.CodeBits = 8
	if err := p.Validate(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	return &FuncSim{cfg: cfg, p: p, fsm: NewFSM()}, nil
}

// Run processes one frame through the pipeline and returns the label
// map. The image must match the configured resolution. Every Run starts
// the FSM from idle and adds exactly one frame's counts.
func (fs *FuncSim) Run(im *imgio.Image) (*imgio.LabelMap, error) {
	if im.W != fs.cfg.Width || im.H != fs.cfg.Height {
		return nil, fmt.Errorf("hw: image %dx%d does not match configured %dx%d",
			im.W, im.H, fs.cfg.Width, fs.cfg.Height)
	}
	r, err := sslic.Segment(im, fs.p)
	if err != nil {
		return nil, err
	}
	if fs.fsm.State() == StateDone {
		fs.fsm.mustTransition(StateIdle)
	}
	fs.fsm.mustTransition(StateLoadFrame)
	fs.fsm.mustTransition(StateColorConvert)
	tiles := r.Tiling.NumTiles()
	for pass := 0; pass < fs.cfg.Passes; pass++ {
		for range tiles {
			fs.fsm.mustTransition(StateLoadTile)
			fs.fsm.mustTransition(StateClusterUpdate)
			fs.fsm.mustTransition(StateStoreTile)
		}
		fs.fsm.mustTransition(StateCenterUpdate)
	}
	fs.fsm.mustTransition(StateDone)
	fs.charge(int64(tiles), int64(len(r.Centers)), r.Stats.DistanceCalcs)
	return r.Labels, nil
}

// charge adds one frame's counts for a grid of tiles cells and centers
// superpixels:
//   - colour conversion: each pixel's three channels are filled into the
//     scratchpads, read, converted at one pixel per cycle, written back
//     and drained, in buffer-sized tiles (three fills and three drains
//     each);
//   - per pass, each grid tile drains the Cluster Update Unit's
//     pipeline, each buffer tile costs the FSM's shuffling cycles and
//     its center/sigma traffic, and each center takes six divisions on
//     the serial divider, whose new value goes back to external memory
//     (3 color + 2×2-byte coordinates);
//   - per visited pixel, one initiation interval, three channel reads
//     and an index write, and bytesPerVisitedPixel of streaming. The
//     passes visit every pixel once per k = round(1/ratio) of them.
func (fs *FuncSim) charge(tiles, centers, calcs int64) {
	c := fs.cfg
	n := int64(c.Width * c.Height)
	passes := int64(c.Passes)
	visited := passes / int64(fs.p.Subsets()) * n
	bufTiles := (n + int64(c.BufferBytesPerChannel) - 1) / int64(c.BufferBytesPerChannel)
	centerCycles := int64(c.CenterOverheadCycles + 6*c.DividerCyclesPerField)
	fs.Cycles += n + visited*int64(c.Cluster.InitiationInterval()) +
		passes*(tiles*int64(c.Cluster.LatencyCycles())+bufTiles*int64(c.TileOverheadCycles)+centers*centerCycles)
	fs.DRAMBytes += 6*n + visited*bytesPerVisitedPixel + passes*(bufTiles*bytesPerTileOverhead+centers*7)
	fs.ScratchReads += 6*n + 3*visited
	fs.ScratchWrites += 6*n + visited
	fs.DistanceCalcs += calcs
	fs.DividerOps += passes * 6 * centers
	fs.visited += visited
	fs.bursts += 6 * bufTiles
}

// resetCounters zeroes the counters, for the next frame's deltas.
func (fs *FuncSim) resetCounters() {
	fs.Cycles, fs.ScratchReads, fs.ScratchWrites, fs.DRAMBytes = 0, 0, 0, 0
	fs.DistanceCalcs, fs.DividerOps, fs.visited, fs.bursts = 0, 0, 0, 0
}

// FSM exposes the host controller for inspection.
func (fs *FuncSim) FSM() *FSM { return fs.fsm }

// TimeSeconds converts the accumulated cycle count to seconds at the
// configured clock.
func (fs *FuncSim) TimeSeconds() float64 {
	return float64(fs.Cycles) / fs.cfg.Tech.ClockHz
}

// EnergyJoules derives a bottom-up energy estimate from the functional
// counters: datapath operations at the calibrated op energy, divider
// work, scratchpad port activity, DRAM traffic at the interface energy
// share, and leakage over the simulated time. It cross-checks the
// top-down utilization-weighted power model of Simulate — the two are
// built from the same constants but opposite directions, so agreement
// within a small factor validates both.
func (fs *FuncSim) EnergyJoules(t energy.Tech) float64 {
	opE := float64(fs.DistanceCalcs) * 7 * t.EnergyPerOp // 7 ops per Eq-5 evaluation
	// Sigma accumulation: 6 adds per visited pixel.
	opE += float64(fs.visited) * 6 * t.EnergyPerOp
	// Serial divider: each division is ~DividerCyclesPerField single-bit
	// step operations.
	opE += float64(fs.DividerOps) * float64(fs.cfg.DividerCyclesPerField) * t.EnergyPerOp
	// Scratchpad ports: one op-equivalent per byte access.
	opE += float64(fs.ScratchReads+fs.ScratchWrites) * t.EnergyPerOp
	// DRAM interface energy share: the powerDRAMInterface constant over
	// the transfer-active time, approximated by bytes over bandwidth.
	dramTime := float64(fs.DRAMBytes) / t.DRAMEffectiveBandwidth
	dram := powerDRAMInterface * dramTime
	leak := t.LeakageWatts(AreaBreakdown{
		Cluster:      fs.cfg.Cluster.AreaMM2(),
		Scratchpads:  t.SRAMAreaMM2(4 * fs.cfg.BufferBytesPerChannel),
		ColorConv:    energy.AreaColorConv,
		CenterUpdate: energy.AreaCenterUpdate,
		FSM:          energy.AreaFSM,
	}.Total()) * fs.TimeSeconds()
	// Scratchpad static/background power over the run (full-utilization
	// assumption, as in the top-down model).
	sram := t.SRAMWatts(4*fs.cfg.BufferBytesPerChannel) * fs.TimeSeconds()
	return opE + dram + leak + sram
}
