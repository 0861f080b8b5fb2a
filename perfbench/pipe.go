package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/hw"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/sslic"
)

// pipelineWorkers is the hd_pipeline worker count, fixed so warm-start
// sharding is the same everywhere. The benchmark runs pinned to one CPU
// (speed.go), where a second worker would only time-share it.
const pipelineWorkers = 1

// directCalls is how many frames the traced run segments directly for
// the S-SLIC phase split: one cold frame, then a warm chain.
const directCalls = 7

// handedRing is how many hand-off times the source keeps. The pipeline
// holds at most a few dozen frames between source and sink, so a frame's
// slot is never reused before its delivery reads it.
const handedRing = 1024

// hdRun is the measured pipeline's delivery-side state. The sink runs on
// Run's goroutine, so only that goroutine touches it while Run is live,
// apart from the fields the source writes: handed (ordered before the
// frame's delivery by the pipeline's channels) and the factors under fmu.
type hdRun struct {
	o        opts
	w, h     int
	p        *pipeline.Pipeline
	cancel   context.CancelFunc
	handed   [handedRing]time.Time
	created  time.Time
	createdF float64 // reference-speed factor measured before creation
	speed    *speed

	fmu      sync.Mutex
	factors  [handedRing]float64 // per frame, measured before its hand-off
	rendered int                 // the last frame with a factor

	next      int       // index the next delivery must carry
	coldDone  time.Time // when every worker's cold first frame was delivered
	timer     *windowTimer
	opened    time.Time
	delivered time.Time // the window's last delivery, or its opening
	kernel    time.Duration
	statsOpen pipeline.Stats
	statsEnd  pipeline.Stats
	closed    bool
	setupS    float64

	scene    func(t int) int // the pan frame shown as pipeline frame t
	out      *outcome
	samples  sampler
	coldPJ   float64
	warmPJ   float64
	energyPJ float64
}

func (r *hdRun) sink(res *pipeline.Result) error {
	now := time.Now()
	defer r.p.Recycle(res)
	if r.next == 0 {
		r.setupS = now.Sub(r.created).Seconds() * r.createdF
	}
	reason := ""
	switch {
	case res.Index != r.next:
		reason = "out_of_order"
	case res.Labels == nil || res.Labels.W != r.w || res.Labels.H != r.h:
		reason = "dims"
	case !labelRangeOK(res.Labels):
		reason = "label_range"
	}
	r.next = res.Index + 1
	if r.closed {
		return nil
	}
	if r.timer == nil {
		// Frames handed over before the cold frames finished waited
		// behind them; the window opens with the first frame that did not.
		if r.next == pipelineWorkers {
			r.coldDone = now
		}
		if !r.coldDone.IsZero() && !r.handed[res.Index%handedRing].Before(r.coldDone) {
			r.openWindow(now)
		}
		return nil
	}
	lat := float64(now.Sub(r.handed[res.Index%handedRing])) / 1e6
	r.out.frame(lat, now.Sub(r.delivered), r.lifeFactor(res.Index))
	r.delivered = now
	if reason == "" {
		if err := r.samples.offer(r.scene(res.Index), res.Labels); err != nil {
			reason = "sample_encode"
		}
	}
	r.out.add(reason)
	if reason == "" {
		r.out.completed++
		if res.Warm {
			r.energyPJ += r.warmPJ
		} else {
			r.energyPJ += r.coldPJ
		}
	}
	if now.Sub(r.opened) >= r.o.seconds {
		r.closeWindow()
	}
	return nil
}

// render is the pipeline's source: it measures the reference speed, then
// hands frame t over.
func (r *hdRun) render(t int, img *imgio.Image, src *imgio.Image) {
	f := r.speed.factor()
	r.fmu.Lock()
	r.factors[t%handedRing] = f
	r.rendered = t
	r.fmu.Unlock()
	r.handed[t%handedRing] = time.Now()
	copy(img.C0, src.C0)
	copy(img.C1, src.C1)
	copy(img.C2, src.C2)
}

// lifeFactor is the mean reference-speed factor measured from frame i's
// hand-off until now: the frames handed over while it waited and ran.
func (r *hdRun) lifeFactor(i int) float64 {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	var sum float64
	for t := i; t <= r.rendered; t++ {
		sum += r.factors[t%handedRing]
	}
	return sum / float64(r.rendered-i+1)
}

func (r *hdRun) openWindow(now time.Time) {
	r.statsOpen = r.p.Stats()
	r.opened, r.delivered = now, now
	r.kernel = r.speed.kernelCPU()
	r.timer = openWindow()
}

func (r *hdRun) closeWindow() {
	r.out.win = r.timer.close()
	r.out.refCPU = r.speed.kernelCPU() - r.kernel
	r.statsEnd = r.p.Stats()
	r.closed = true
	r.cancel()
}

// frameEnergyPJ is the hw model's per-frame energy for the given subset
// passes, configured the way the server charges a request.
func frameEnergyPJ(s shape, p sslic.Params, passes int) (float64, error) {
	cfg := hw.DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = s.w, s.h, p.K
	cfg.SubsampleRatio = p.SubsampleRatio
	cfg.Passes = passes
	rep, err := hw.Simulate(cfg)
	if err != nil {
		return 0, fmt.Errorf("hw model: %w", err)
	}
	return rep.EnergyPerFrame * 1e12, nil
}

// runHD: the library video engine with no HTTP — 720p frames of a
// panning scene through pipeline.Pipeline with one warm-start worker on
// the fixed datapath, K=900. At 1080p a single worker delivers too few
// frames in the window for a supported p90.
func runHD(o opts, traced bool) (*outcome, error) {
	s, frames := shape{1280, 720, 900, 60}, 8
	if o.smoke {
		s, frames = shape{192, 108, 64, 8}, 4
	}
	sp, err := newSpeed()
	if err != nil {
		return nil, err
	}
	ps, err := newPanStream(s, dataset.Voronoi, o.seed*1000, frames)
	if err != nil {
		return nil, err
	}
	params := sslic.DefaultParams(s.k, 0.5)
	params.Datapath = sslic.Fixed
	const warmIters = 3
	out := &outcome{heapBase: settleHeap()}
	r := &hdRun{
		o: o, w: s.w, h: s.h, out: out, speed: sp,
		scene:   func(t int) int { return ps.order[t%len(ps.order)] },
		samples: sampler{every: 8, max: 8},
	}
	if r.coldPJ, err = frameEnergyPJ(s, params, params.FullIters*params.Subsets()); err != nil {
		return nil, err
	}
	if r.warmPJ, err = frameEnergyPJ(s, params, warmIters*params.Subsets()); err != nil {
		return nil, err
	}
	render := func(t int, img *imgio.Image, _ *imgio.LabelMap) error {
		r.render(t, img, ps.frames[r.scene(t)])
		return nil
	}
	cfg := pipeline.Config{
		Width: s.w, Height: s.h, Workers: pipelineWorkers,
		Params: params, Warm: true, WarmIters: warmIters,
	}

	// Two stand-alone set-ups, each run to its first delivered frame, and
	// the measured pipeline's own start: setup_s is their median.
	for i := 0; i < 2 && !o.setupOnce; i++ {
		one := cfg
		one.Frames = 1
		f := sp.factor()
		t0 := time.Now()
		p, err := pipeline.New(one, render, func(*pipeline.Result) error { return nil })
		if err != nil {
			return nil, err
		}
		if err := p.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds()*f)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.cancel = cancel
	cfg.Frames = 1 << 30 // until the window closes
	r.createdF = sp.factor()
	r.created = time.Now()
	if r.p, err = pipeline.New(cfg, render, r.sink); err != nil {
		return nil, err
	}
	if err := r.p.Run(ctx); err != nil && !(r.closed && errors.Is(err, context.Canceled)) {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if !r.closed {
		return nil, errors.New("pipeline: ended before the window closed")
	}
	out.setupS = append(out.setupS, r.setupS)
	if out.completed > 0 {
		out.energyUJ = r.energyPJ / 1e6 / float64(out.completed)
	}
	if err := out.q.addSamples(r.samples.kept, ps.groundTruth); err != nil {
		return nil, err
	}
	if !traced {
		return out, nil
	}

	stage := func(a, b pipeline.StageStats) float64 {
		n := b.Completed - a.Completed
		if n <= 0 {
			return 0
		}
		total := float64(b.LatencyMean)*float64(b.Completed) - float64(a.LatencyMean)*float64(a.Completed)
		return total / float64(n) / 1e6
	}
	st0, st1 := r.statsOpen, r.statsEnd
	queueHW := max(st1.Source.QueueHighWater, st1.Segment.QueueHighWater, st1.Sink.QueueHighWater)
	out.layers = []named{
		{"pipeline.source_ms", metric{stage(st0.Source, st1.Source), "ms"}},
		{"pipeline.segment_ms", metric{stage(st0.Segment, st1.Segment), "ms"}},
		{"pipeline.sink_ms", metric{stage(st0.Sink, st1.Sink), "ms"}},
		{"pipeline.queue_high_water", metric{float64(queueHW), "count"}},
		{"pipeline.reorder_high_water", metric{float64(st1.ReorderHighWater), "count"}},
	}

	// The pipeline has no backend hook, so the S-SLIC phases come from
	// direct calls on the same frames, warm-chained as one worker would
	// run them; the cold first frame is left out, as the window leaves
	// out the pipeline's cold frames.
	out.phases = &phaseAcc{}
	chain := params
	for i, t := range ps.order[:min(len(ps.order), directCalls)] {
		res, err := sslic.SegmentContext(context.Background(), ps.frames[t], chain)
		if err != nil {
			return nil, fmt.Errorf("direct S-SLIC call: %w", err)
		}
		if i > 0 {
			out.phases.add(res.Stats)
		}
		chain.InitialCenters = res.Centers
		chain.FullIters = warmIters
	}
	out.layers = append(out.layers, out.phases.layers()...)
	out.layers = append(out.layers, out.runtimeLayers()...)
	return out, nil
}
