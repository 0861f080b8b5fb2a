// Package pipeline holds the segmentation worker engine, Pool, and the
// inter-frame concurrency layer of the video path, Pipeline: a source →
// pool → in-order sink stream that overlaps frame rendering, S-SLIC
// segmentation and result consumption the way the accelerator overlaps
// its DMA and compute phases. The intra-frame parallelism of
// sslic.Params.Workers scales one frame across cores; this package
// scales the *stream*, which is what a real-time claim is about (gSLICr
// frames-per-second framing rather than seconds-per-image).
//
// Pipeline design:
//
//   - The source renders frames in order into buffers from an
//     internal/bufpool pool and enqueues each on a private Pool, whose
//     workers segment them. Config.QueueDepth bounds the frames between
//     render and delivery, so a slow sink or segmenter backpressures the
//     source and nothing buffers unboundedly.
//   - Cold mode spreads frames round-robin over the pool's workers. Warm
//     mode makes lane f mod Workers one pool stream pinned to its own
//     worker, so each warm-start chain (frame f seeded with the centers
//     of frame f−Workers) is deterministic.
//   - The sink waits on each frame's reply in frame order, so temporal
//     metrics (label consistency between consecutive frames) and golden
//     comparisons against the sequential loop remain valid.
//   - The sink calls Recycle when it is done with a Result; the
//     steady-state loop then allocates no image-sized buffers.
//   - Cancellation via context.Context drains gracefully: queued frames
//     are skipped, running ones abort between subset passes, every
//     frame's buffers return to the pool, every goroutine exits, and Run
//     returns the first error (or the context error).
//
// Per-stage counters (frames in/out, queue high-water mark, latency
// min/mean/max) are available from Stats at any time. They are backed
// by an internal/telemetry registry — pass one in Config.Registry to
// expose the same series live on a /metrics endpoint; Stats is a thin
// view over those series, the pool's for the segment stage.
package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"sslic/internal/bufpool"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/sslic"
	"sslic/internal/stream"
	"sslic/internal/telemetry"
)

// RenderFunc fills caller-owned buffers with frame t of a stream. It is
// called from the single source goroutine, in frame order.
// (*video.Stream).FrameInto satisfies this signature.
type RenderFunc func(t int, img *imgio.Image, gt *imgio.LabelMap) error

// SinkFunc consumes results strictly in frame order, one call at a time.
// Returning an error cancels the pipeline. The sink owns the Result's
// buffers until it passes them to Pipeline.Recycle; holding a Result
// across calls (e.g. for temporal-consistency scoring against the
// previous frame) is fine.
type SinkFunc func(r *Result) error

// Config sizes the pipeline.
type Config struct {
	// Width, Height are the frame dimensions (they size the buffers).
	Width, Height int
	// Frames is the number of frames to pull from the source.
	Frames int
	// Workers is the pool's worker count; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the frames between render and delivery; <= 0
	// selects 2 × Workers.
	QueueDepth int
	// Params is the base segmentation configuration for cold frames.
	Params sslic.Params
	// Warm enables warm-start chains: frame f seeds its centers from
	// frame f−Workers, its lane's previous frame on the same sticky
	// worker. The first frame of each lane runs cold, and so does every
	// CPA frame. With Workers = 1 this reproduces the sequential warm
	// loop exactly.
	Warm bool
	// WarmIters is FullIters for warm-started frames; <= 0 selects 3.
	WarmIters int
	// Registry receives the pipeline's metrics: per-stage frame counters,
	// service-time histograms (span families with in-flight gauges),
	// queue high-water gauges, delivered/dropped counters, and the
	// series of its pool and buffer pool. nil
	// selects a private registry so Stats always works; pass a shared
	// registry to expose the series on a /metrics endpoint. Sharing one
	// registry across concurrently running pipelines aggregates their
	// counters, so per-pipeline Stats are only meaningful with a
	// dedicated registry.
	Registry *telemetry.Registry
	// Recorder, when set, gives every frame its own flight-recorder
	// trace (ID "<run>-frame<index>"): render, queue waits, the pool job
	// with its per-subset-pass events, and in-order delivery all land on
	// one timeline, fetchable from /debug/trace. The recorder's
	// sampling decides which frames are kept; nil disables per-frame
	// tracing entirely.
	Recorder *telemetry.FlightRecorder
	// Logger, when set, emits per-frame span trace events (stage
	// start/end with the frame index) at debug level.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.WarmIters <= 0 {
		c.WarmIters = 3
	}
	return c
}

// Result is one segmented frame, delivered to the sink in frame order.
type Result struct {
	Index   int
	Image   *imgio.Image
	GT      *imgio.LabelMap
	Labels  *imgio.LabelMap
	Centers []slic.Center
	// Warm reports whether the frame was warm-started.
	Warm bool
	// SegLatency is the segment-stage service time for this frame.
	SegLatency time.Duration
	// Trace is the frame's flight-recorder trace (nil without a
	// Config.Recorder). The sink may append events to it — e.g. the
	// hardware model's charging ticks via telemetry.WithTrace — and the
	// pipeline finishes it after the sink returns.
	Trace *telemetry.Trace
}

// frame is a rendered frame awaiting in-order delivery; its image and
// label buffer travel in the pool job.
type frame struct {
	index int
	gt    *imgio.LabelMap
	trace *telemetry.Trace
	req   *poolReq
}

// Pipeline is a single-use frame pipeline: construct with New, drive
// with Run, inspect with Stats.
type Pipeline struct {
	cfg    Config
	render RenderFunc
	sink   SinkFunc
	runID  string // prefix of per-frame trace IDs

	bufs *bufpool.Pool
	pool *Pool

	registry *telemetry.Registry
	srcStats *stageMetrics
	snkStats *stageMetrics

	reorderHW *telemetry.Gauge
	delivered *telemetry.Counter
	dropped   *telemetry.Counter

	errOnce  sync.Once
	firstErr error
	cancel   context.CancelFunc
}

// New validates the configuration and builds a pipeline.
func New(cfg Config, render RenderFunc, sink SinkFunc) (*Pipeline, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("pipeline: invalid frame size %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Frames < 0 {
		return nil, fmt.Errorf("pipeline: negative frame count %d", cfg.Frames)
	}
	if render == nil || sink == nil {
		return nil, fmt.Errorf("pipeline: nil render or sink func")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// Each frame holds two label maps (ground truth and labels); the
	// free lists keep those of every frame in flight plus the one a sink
	// may hold back, so the steady state never allocates.
	bufs := bufpool.New(bufpool.Config{MaxPerClass: 2 * (cfg.QueueDepth + 1), Registry: reg})
	p := &Pipeline{
		cfg: cfg, render: render, sink: sink, runID: telemetry.NewTraceID(),
		bufs: bufs,
		// No shard ever holds more than the QueueDepth frames in flight,
		// so admission never fails with ErrSaturated; the stream table
		// holds every warm lane, so lanes never evict each other.
		pool: newPool(PoolConfig{
			Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, WarmIters: cfg.WarmIters,
			Streams: stream.New(stream.Config{MaxStreams: cfg.Workers, Registry: reg}),
			Buffers: bufs, Registry: reg, Logger: cfg.Logger,
		}),
		registry: reg,
		srcStats: newStageMetrics(reg, cfg.Logger, "source"),
		snkStats: newStageMetrics(reg, cfg.Logger, "sink"),
	}
	p.reorderHW = reg.Gauge("sslic_pipeline_reorder_high_water",
		"Most frames ever held awaiting in-order delivery.")
	p.delivered = reg.Counter("sslic_pipeline_frames_delivered_total",
		"Results the sink accepted.")
	p.dropped = reg.Counter("sslic_pipeline_frames_dropped_total",
		"Frames recycled during a cancellation drain.")
	return p, nil
}

// Registry returns the registry carrying the pipeline's metrics — the
// one from Config, or the private registry created when none was given.
func (p *Pipeline) Registry() *telemetry.Registry { return p.registry }

// Recycle returns a Result's buffers to the pipeline's buffer pool. The
// Result and its buffers must not be used afterwards. Never recycling
// is safe — the pool just misses and allocates.
func (p *Pipeline) Recycle(r *Result) {
	if r == nil {
		return
	}
	p.bufs.PutImage(r.Image)
	p.bufs.PutLabelMap(r.GT)
	p.bufs.PutLabelMap(r.Labels)
	r.Image, r.GT, r.Labels, r.Centers = nil, nil, nil, nil
}

// fail records the first error and cancels the run.
func (p *Pipeline) fail(err error) {
	p.errOnce.Do(func() {
		p.firstErr = err
		p.cancel()
	})
}

// Run executes the pipeline until all frames are delivered, the context
// is cancelled, or a stage fails. It blocks; the sink runs on the
// calling goroutine. Run must be called at most once.
func (p *Pipeline) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p.cancel = cancel
	p.pool.start()
	defer p.pool.Close()

	// slots is the QueueDepth semaphore over frames between render and
	// delivery. inflight carries them to the sink in frame order; it
	// has room for every slot, so sends never block.
	slots := make(chan struct{}, p.cfg.QueueDepth)
	inflight := make(chan *frame, p.cfg.QueueDepth)
	go p.source(ctx, slots, inflight)
	for fr := range inflight {
		p.deliver(ctx, fr, len(inflight))
		<-slots
	}
	if p.firstErr != nil {
		return p.firstErr
	}
	return ctx.Err()
}

// source renders frames in order into pooled buffers and enqueues each
// on the pool, taking a slot per frame first.
func (p *Pipeline) source(ctx context.Context, slots chan struct{}, inflight chan<- *frame) {
	defer close(inflight)
	w, h := p.cfg.Width, p.cfg.Height
	// Warm lane f mod Workers is pool stream lanes[f mod Workers].
	var lanes []string
	if p.cfg.Warm {
		lanes = p.pool.laneStreams()
	}
	for t := 0; t < p.cfg.Frames; t++ {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return
		}
		img, _ := p.bufs.GetImage(w, h)
		gt, _ := p.bufs.GetLabelMap(w, h)
		labels, _ := p.bufs.GetLabelMap(w, h)
		// Each frame gets its own trace; the recorder's sampling decides
		// retention. The nil-recorder guard keeps the untraced hot path
		// free of the ID formatting allocation.
		var tr *telemetry.Trace
		if p.cfg.Recorder != nil {
			tr = p.cfg.Recorder.StartTrace(fmt.Sprintf("%s-frame%05d", p.runID, t), false)
		}
		tctx := telemetry.WithTrace(ctx, tr)
		p.srcStats.arrive(0)
		sp := p.srcStats.beginCtx(tctx, "frame", t)
		err := faults.Fire(faults.PointPipelineSource)
		if err == nil {
			err = p.render(t, img, gt)
		}
		var req *poolReq
		if err != nil {
			sp.Abort()
		} else {
			// The span ends before the enqueue so the frame's trace reads
			// in stage order.
			sp.End()
			job := Job{Image: img, Params: p.cfg.Params, LabelBuf: labels}
			if lanes != nil {
				job.StreamID = lanes[t%len(lanes)]
			}
			req, err = p.pool.enqueue(tctx, job)
		}
		if err != nil {
			tr.SetError(err)
			tr.Finish()
			p.bufs.PutImage(img)
			p.bufs.PutLabelMap(gt)
			p.bufs.PutLabelMap(labels)
			p.fail(fmt.Errorf("pipeline: source frame %d: %w", t, err))
			return
		}
		inflight <- &frame{index: t, gt: gt, trace: tr, req: req}
		p.srcStats.sent(len(inflight))
		p.reorderHW.SetMax(float64(len(slots)))
	}
}

// deliver waits for one frame's reply and hands the result to the sink;
// queued is the number of frames behind it. Once the run is failing or
// cancelled it recycles the frame instead. The worker has returned when
// the reply arrives, so the frame's buffers are always safe to reuse.
func (p *Pipeline) deliver(ctx context.Context, fr *frame, queued int) {
	rep := <-fr.req.reply
	job := fr.req.job
	if rep.err != nil || ctx.Err() != nil {
		fr.trace.SetError(rep.err)
		fr.trace.Finish()
		p.bufs.PutImage(job.Image)
		p.bufs.PutLabelMap(fr.gt)
		p.bufs.PutLabelMap(job.LabelBuf)
		// A frame aborted by the run's cancellation is a drain drop, not
		// a pipeline failure; Run reports ctx.Err().
		if ctx.Err() != nil {
			p.dropped.Inc()
			return
		}
		p.fail(fmt.Errorf("pipeline: segment frame %d: %w", fr.index, rep.err))
		return
	}
	p.snkStats.waited(fr.trace, fr.req.enqueued)
	p.snkStats.arrive(queued)
	r := &Result{
		Index:      fr.index,
		Image:      job.Image,
		GT:         fr.gt,
		Labels:     rep.res.Result.Labels,
		Centers:    rep.res.Result.Centers,
		Warm:       rep.res.Warm,
		SegLatency: rep.res.Latency,
		Trace:      fr.trace,
	}
	sp := p.snkStats.beginCtx(telemetry.WithTrace(ctx, fr.trace), "frame", fr.index)
	err := faults.Fire(faults.PointPipelineSink)
	if err == nil {
		err = p.sink(r)
	}
	if err != nil {
		sp.Abort()
		fr.trace.SetError(err)
		fr.trace.Finish()
		p.fail(fmt.Errorf("pipeline: sink frame %d: %w", fr.index, err))
		return
	}
	sp.End()
	fr.trace.Finish()
	p.snkStats.sent(0)
	p.delivered.Inc()
}
