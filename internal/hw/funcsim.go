package hw

import (
	"fmt"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
)

// FuncSim is the functional (bit-accurate) simulation of the
// accelerator: where Simulate prices a configuration's nominal work, a
// FuncSim runs the frame's pixels through the hardware datapath — the
// LUT color conversion unit and the Cluster Update Unit's 8-bit codes,
// saturating 8-bit distance codes and integer sigma sums: the fixed
// kernel of internal/sslic, which serves as sslic.Fixed, run as
// sslic.Coded(8) — produces the label map the silicon would produce,
// walks the host FSM's schedule buffer tile by buffer tile, the
// schedule the account prices, and prices the frame's own work through
// the same account as Simulate.
type FuncSim struct {
	cfg Config
	p   sslic.Params
	fsm *FSM
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
	p.Datapath = sslic.Coded(8)
	if err := p.Validate(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	return &FuncSim{cfg: cfg, p: p, fsm: NewFSM()}, nil
}

// Run processes one frame through the pipeline and returns the label
// map and the frame's report. The image must match the configured
// resolution. Every Run starts the FSM from idle.
func (fs *FuncSim) Run(im *imgio.Image) (*imgio.LabelMap, *Report, error) {
	if im.W != fs.cfg.Width || im.H != fs.cfg.Height {
		return nil, nil, fmt.Errorf("hw: image %dx%d does not match configured %dx%d",
			im.W, im.H, fs.cfg.Width, fs.cfg.Height)
	}
	r, err := sslic.Segment(im, fs.p)
	if err != nil {
		return nil, nil, err
	}
	if fs.fsm.State() == StateDone {
		fs.fsm.mustTransition(StateIdle)
	}
	fs.fsm.mustTransition(StateLoadFrame)
	fs.fsm.mustTransition(StateColorConvert)
	for pass := 0; pass < fs.cfg.Passes; pass++ {
		for range bufferTiles(fs.cfg) {
			fs.fsm.mustTransition(StateLoadTile)
			fs.fsm.mustTransition(StateClusterUpdate)
			fs.fsm.mustTransition(StateStoreTile)
		}
		fs.fsm.mustTransition(StateCenterUpdate)
	}
	fs.fsm.mustTransition(StateDone)
	// The passes visit every pixel once per k = round(1/ratio) of them.
	return r.Labels, price(fs.cfg, Work{
		Passes:        fs.cfg.Passes,
		Visited:       int64(fs.cfg.Passes/fs.p.Subsets()) * int64(im.W*im.H),
		Centers:       len(r.Centers),
		DistanceCalcs: r.Stats.DistanceCalcs,
	}), nil
}

// FSM exposes the host controller for inspection.
func (fs *FuncSim) FSM() *FSM { return fs.fsm }
