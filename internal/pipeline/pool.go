package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sslic/internal/bufpool"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// Pool is the segmentation worker engine. It accepts one frame at a
// time from many concurrent callers — the shape an HTTP serving front
// end needs — and Pipeline drives a known-length frame stream through
// it, so warm starts, retries, the watchdog, panic isolation and
// scratch reuse exist once.
//
// Admission control is explicit: every shard has a bounded queue, and
// Submit never blocks on a full one — it fails fast with ErrSaturated
// so the caller can shed load (a 429 at the HTTP layer) instead of
// queueing unboundedly. Memory is therefore bounded by
// Workers × (QueueDepth+1) in-flight frames regardless of offered load.
//
// Warm starts survive across submissions: jobs carrying a StreamID are
// sharded by a hash of that ID, so consecutive frames of one client
// stream land on the same worker, which keeps the stream's last centers
// and seeds the next frame with them (Pipeline's warm lanes are such
// streams). Sharding also serializes each stream: two in-flight frames
// of one stream cannot race on its warm state.
//
// Cancellation: Submit honors its context both while queued (the job is
// discarded before it runs) and mid-run (the context reaches
// sslic.SegmentContext, which aborts between subset passes).
type Pool struct {
	cfg    PoolConfig
	shards []chan *poolReq
	rr     atomic.Uint64 // round-robin for jobs without a stream ID
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	// inflight counts admitted-but-unfinished jobs per stream, so the
	// warm-state eviction can tell an idle stream from one with frames
	// still queued ("mid-frame") and never evict the latter.
	inflightMu sync.Mutex
	inflight   map[string]int

	depth      atomic.Int64 // authoritative queued-job count behind the gauges
	queueDepth *telemetry.Gauge
	queueHW    *telemetry.Gauge
	queueWait  *telemetry.Histogram
	admitted   *telemetry.Counter
	rejected   *telemetry.Counter
	warmJobs   *telemetry.Counter
	retries    *telemetry.Counter
	stuck      *telemetry.Counter
	evictions  *telemetry.Counter
	streams    *telemetry.Gauge
	spans      *telemetry.Spans
}

// SegmentFunc is the segmentation backend a Pool runs. The default is
// sslic.SegmentContext; tests and alternative backends substitute it.
type SegmentFunc func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error)

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// Workers is the shard/worker count; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds each shard's admission queue; <= 0 selects 2.
	// Total admitted-but-unstarted work is Workers × QueueDepth.
	QueueDepth int
	// WarmIters is FullIters for warm-started jobs; <= 0 selects 3.
	WarmIters int
	// MaxStreams caps the warm states kept per shard; the
	// least-recently-used stream without queued work is evicted beyond
	// it. <= 0 selects 64.
	MaxStreams int
	// Retries bounds per-job retries of transient faults (injected
	// failures per faults.IsTransient): the frame is re-run from scratch
	// after a doubling backoff, so a surviving retry still yields the
	// deterministic fault-free output. < 0 disables; 0 selects 2.
	Retries int
	// RetryBackoff is the first retry's backoff, doubling per attempt;
	// <= 0 selects 2ms. The backoff honors the job's context.
	RetryBackoff time.Duration
	// WatchdogGrace arms the stuck-worker watchdog: a job whose backend
	// has not returned by its context deadline plus this grace is failed
	// with ErrWorkerStuck (the caller gets an error, the worker moves
	// on) instead of wedging the shard forever. The abandoned attempt's
	// goroutine exits whenever the backend finally returns; its result
	// is discarded. 0 disables (jobs without a deadline are never
	// watched either way).
	WatchdogGrace time.Duration
	// Buffers hands every worker a reusable sslic.Scratch for its
	// lifetime, so steady-state frames segment without reallocating
	// the Lab planes and accumulators (~32 bytes/pixel). Workers are
	// single-threaded and streams shard stickily, so one scratch per
	// worker is race-free; a watchdog-abandoned frame poisons its
	// scratch (the orphaned attempt may still write into it) and the
	// worker draws a fresh one. nil selects a private pool.
	Buffers *bufpool.Pool
	// Segment is the backend; nil selects sslic.SegmentContext.
	Segment SegmentFunc
	// Registry receives the pool's metrics; nil selects a private one.
	Registry *telemetry.Registry
	// Logger, when set, emits per-job debug span events.
	Logger *slog.Logger
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2
	}
	if c.WarmIters <= 0 {
		c.WarmIters = 3
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Segment == nil {
		c.Segment = sslic.SegmentContext
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Buffers == nil {
		c.Buffers = bufpool.New(bufpool.Config{Registry: c.Registry})
	}
	return c
}

// Job is one frame to segment.
type Job struct {
	// Image is the frame; required.
	Image *imgio.Image
	// Params is the full segmentation configuration for a cold run. The
	// pool overrides InitialCenters and FullIters when a warm state is
	// available for the stream and Params selects PPA.
	Params sslic.Params
	// StreamID identifies a client stream for warm-start stickiness.
	// Empty runs cold and spreads round-robin across shards. The ID is
	// an opaque key: callers multiplexing several principals over one
	// pool (the server's multi-tenant mode) must namespace it
	// ("tenant/stream"), because two jobs with equal StreamIDs share
	// warm centers.
	StreamID string
	// LabelBuf, when set, is the caller-owned label buffer the backend
	// segments into (sslic.Params.LabelBuf): the result's Labels alias
	// it, so the response can be encoded straight from the caller's
	// buffer with no intermediate copy. Ownership caveat: if Submit
	// fails after admission (deadline, cancel, watchdog abandon), an
	// orphaned attempt may still be writing into the buffer — the
	// caller must treat it as poisoned and leak it to the garbage
	// collector rather than recycle it.
	LabelBuf *imgio.LabelMap
}

// JobResult is the outcome of one Job.
type JobResult struct {
	// Result is the segmentation output. Its buffers are owned by the
	// caller; the pool keeps only the centers (for warm starts).
	Result *sslic.Result
	// Warm reports whether the job was seeded from its stream's
	// previous centers.
	Warm bool
	// Latency is the segment service time (queueing excluded).
	Latency time.Duration
}

// ErrSaturated is returned by Submit when the target shard's admission
// queue is full. Callers should shed the request (HTTP 429).
var ErrSaturated = errors.New("pipeline: admission queue full")

// ErrPoolClosed is returned by Submit after Close started draining.
var ErrPoolClosed = errors.New("pipeline: pool closed")

// ErrSegmentPanic wraps a panic recovered from the segmentation
// backend. Callers that track backend health (the server's panic-rate
// circuit breaker) match it with errors.Is.
var ErrSegmentPanic = errors.New("pipeline: segment backend panic")

// ErrWorkerStuck is returned for a job the watchdog abandoned: the
// backend ignored its deadline for longer than WatchdogGrace, so the
// frame fails instead of the shard hanging.
var ErrWorkerStuck = errors.New("pipeline: worker abandoned stuck frame")

// poolReq is one queued submission.
type poolReq struct {
	ctx      context.Context
	job      Job
	enqueued time.Time
	reply    chan poolReply
}

type poolReply struct {
	res *JobResult
	err error
}

// warmState is one stream's carry-over between frames. Centers are only
// reused when the frame geometry and K still match.
type warmState struct {
	centers []slic.Center
	w, h, k int
}

// NewPool starts the workers and returns a ready pool.
func NewPool(cfg PoolConfig) *Pool {
	p := newPool(cfg)
	p.start()
	return p
}

// newPool builds a pool and registers its series without starting the
// workers, so a Pipeline's Stats can view them before Run.
func newPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	p := &Pool{
		cfg:      cfg,
		shards:   make([]chan *poolReq, cfg.Workers),
		inflight: make(map[string]int),
		queueDepth: reg.Gauge("sslic_pool_queue_depth",
			"Jobs admitted but not yet started, across all shards."),
		queueHW: reg.Gauge("sslic_pool_queue_depth_high_water",
			"Deepest the admission queues ever got, across all shards — the after-the-fact explanation for 429s."),
		queueWait: reg.Histogram("sslic_pool_queue_wait_seconds",
			"Time a job spent admitted but not yet started.",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
		admitted: reg.Counter("sslic_pool_jobs_admitted_total",
			"Jobs accepted into a shard queue."),
		rejected: reg.Counter("sslic_pool_jobs_rejected_total",
			"Jobs refused because the shard queue was full."),
		warmJobs: reg.Counter("sslic_pool_warm_jobs_total",
			"Jobs seeded from their stream's previous centers."),
		retries: reg.Counter("sslic_pool_retries_total",
			"Segmentation attempts re-run after a transient fault."),
		stuck: reg.Counter("sslic_pool_stuck_frames_total",
			"Jobs the watchdog abandoned past their deadline plus grace."),
		evictions: reg.Counter("sslic_pool_stream_evictions_total",
			"Warm-start states evicted to respect MaxStreams."),
		streams: reg.Gauge("sslic_pool_streams",
			"Warm-start stream states currently held."),
		spans: telemetry.NewSpans(reg, "sslic_pool_job",
			"Per-job segment service time (queueing excluded).", nil, cfg.Logger),
	}
	for i := range p.shards {
		p.shards[i] = make(chan *poolReq, cfg.QueueDepth)
	}
	return p
}

// start launches one worker per shard.
func (p *Pool) start() {
	for _, sh := range p.shards {
		p.wg.Add(1)
		go p.worker(sh)
	}
}

// Registry returns the registry carrying the pool's metrics.
func (p *Pool) Registry() *telemetry.Registry { return p.cfg.Registry }

// Queued reports the jobs admitted but not yet picked up by a worker,
// summed across shards. It is a point-in-time observation for tests and
// load probes; the authoritative series is the queue-depth gauge.
func (p *Pool) Queued() int {
	n := 0
	for _, sh := range p.shards {
		n += len(sh)
	}
	return n
}

// QueueCapacity reports the total admission-queue capacity
// (Workers × QueueDepth) — the denominator load controllers need to
// turn the queue-depth gauge into a fill fraction.
func (p *Pool) QueueCapacity() int {
	return p.cfg.Workers * p.cfg.QueueDepth
}

// Workers reports the resolved worker count — with QueueCapacity, the
// total number of jobs the pool can hold (queued plus running), which
// is what an upstream admission gate should size itself to.
func (p *Pool) Workers() int { return p.cfg.Workers }

// shardFor maps a stream ID onto a shard. Jobs without a stream spread
// round-robin; streams stick by FNV-1a hash.
func (p *Pool) shardFor(streamID string) chan *poolReq {
	if streamID == "" {
		return p.shards[p.rr.Add(1)%uint64(len(p.shards))]
	}
	return p.shards[shardIndex(streamID, len(p.shards))]
}

func shardIndex(streamID string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(streamID))
	return int(h.Sum32() % uint32(shards))
}

// laneStreams returns one stream ID per shard, ID i sticking to shard
// i, so a caller can give every worker one stream of its own. The IDs
// are the first decimal integers that do so; consecutive integers
// alone would not (FNV-1a puts "0" and "2" on one shard of three).
func (p *Pool) laneStreams() []string {
	ids := make([]string, len(p.shards))
	for n, left := 0, len(ids); left > 0; n++ {
		id := strconv.Itoa(n)
		if i := shardIndex(id, len(ids)); ids[i] == "" {
			ids[i] = id
			left--
		}
	}
	return ids
}

// Submit runs one job and blocks until its result, its context's
// cancellation, or an admission failure. It is safe from any number of
// goroutines. Exactly one of the results is non-nil.
func (p *Pool) Submit(ctx context.Context, job Job) (*JobResult, error) {
	req, err := p.enqueue(ctx, job)
	if err != nil {
		return nil, err
	}
	select {
	case rep := <-req.reply:
		return rep.res, rep.err
	case <-ctx.Done():
		// The job may still be queued (the worker will discard it) or
		// running (SegmentContext will abort it); either way the reply
		// lands in the buffered channel and is garbage collected.
		return nil, ctx.Err()
	}
}

// enqueue admits one job without waiting for it. Once admitted, the
// job's worker always answers on req.reply, also when the job's context
// ends while it is queued or running.
func (p *Pool) enqueue(ctx context.Context, job Job) (*poolReq, error) {
	if job.Image == nil {
		return nil, fmt.Errorf("pipeline: job without image")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faults.Fire(faults.PointPoolSubmit); err != nil {
		return nil, err
	}
	req := &poolReq{ctx: ctx, job: job, enqueued: time.Now(), reply: make(chan poolReply, 1)}

	// The stream's in-flight count is raised before the send so the
	// worker's matching decrement (at dequeue) can never run first.
	p.streamAdd(job.StreamID)

	// The RLock pairs with Close's Lock: it guarantees no Submit is
	// mid-send on a channel Close is about to close.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.streamDone(job.StreamID)
		return nil, ErrPoolClosed
	}
	select {
	case p.shardFor(job.StreamID) <- req:
		p.mu.RUnlock()
		p.admitted.Inc()
		d := float64(p.depth.Add(1))
		p.queueDepth.Set(d)
		p.queueHW.SetMax(d)
		return req, nil
	default:
		p.mu.RUnlock()
		p.streamDone(job.StreamID)
		p.rejected.Inc()
		return nil, ErrSaturated
	}
}

// streamAdd raises a stream's in-flight count (no-op for anonymous
// jobs); streamDone lowers it, dropping the entry at zero so the map
// stays bounded by concurrent streams, not historical ones.
func (p *Pool) streamAdd(id string) {
	if id == "" {
		return
	}
	p.inflightMu.Lock()
	p.inflight[id]++
	p.inflightMu.Unlock()
}

func (p *Pool) streamDone(id string) {
	if id == "" {
		return
	}
	p.inflightMu.Lock()
	if n := p.inflight[id] - 1; n <= 0 {
		delete(p.inflight, id)
	} else {
		p.inflight[id] = n
	}
	p.inflightMu.Unlock()
}

// streamBusy reports whether the stream has admitted jobs not yet
// dequeued by its worker — the "mid-frame" state eviction must spare.
func (p *Pool) streamBusy(id string) bool {
	p.inflightMu.Lock()
	busy := p.inflight[id] > 0
	p.inflightMu.Unlock()
	return busy
}

// worker owns one shard: its queue and its streams' warm states.
func (p *Pool) worker(in chan *poolReq) {
	defer p.wg.Done()
	states := make(map[string]*warmState)
	var order []string // least- to most-recently-used, for eviction
	scratch := p.cfg.Buffers.GetScratch()
	defer func() { p.cfg.Buffers.PutScratch(scratch) }()
	for req := range in {
		p.streamDone(req.job.StreamID)
		p.queueDepth.Set(float64(p.depth.Add(-1)))
		wait := time.Since(req.enqueued)
		p.queueWait.Observe(wait.Seconds())
		telemetry.CostFrom(req.ctx).AddQueueWait(wait)
		if tr := telemetry.TraceFrom(req.ctx); tr != nil {
			tr.Emit("queue_wait", "pool", req.enqueued, wait,
				map[string]any{"stream": req.job.StreamID})
		}
		if err := req.ctx.Err(); err != nil {
			req.reply <- poolReply{err: err}
			continue
		}
		params := req.job.Params
		if req.job.LabelBuf != nil {
			params.LabelBuf = req.job.LabelBuf
		}
		params.Scratch = scratch
		// Only PPA takes InitialCenters, so CPA jobs always run cold.
		warm := false
		if st := states[req.job.StreamID]; st != nil && params.Arch == sslic.PPA &&
			st.w == req.job.Image.W && st.h == req.job.Image.H && st.k == params.K {
			params.InitialCenters = st.centers
			params.FullIters = p.cfg.WarmIters
			warm = true
		}
		sp := p.spans.StartCtx(req.ctx, "stream", req.job.StreamID, "warm", warm)
		r, err := p.runJob(req.ctx, req.job.Image, params)
		if err != nil {
			if errors.Is(err, ErrWorkerStuck) {
				// The abandoned attempt's goroutine may still be
				// writing into the scratch; leak it and draw a clean
				// one, exactly like the caller's poisoned LabelBuf.
				scratch = p.cfg.Buffers.GetScratch()
			}
			sp.Abort()
			req.reply <- poolReply{err: err}
			continue
		}
		lat := sp.End()
		if warm {
			p.warmJobs.Inc()
		}
		if req.job.StreamID != "" {
			order = p.storeState(states, order, req.job.StreamID, &warmState{
				centers: r.Centers, w: req.job.Image.W, h: req.job.Image.H, k: req.job.Params.K,
			})
		}
		req.reply <- poolReply{res: &JobResult{Result: r, Warm: warm, Latency: lat}}
	}
	p.streams.Add(-float64(len(states)))
}

// storeState records a stream's warm state, maintaining LRU order and
// evicting beyond MaxStreams. The victim is the least-recently-used
// stream with no in-flight work; only if every candidate is mid-frame
// does strict LRU apply — so a hot stream (steadily resubmitting) is
// never evicted between two of its queued frames.
func (p *Pool) storeState(states map[string]*warmState, order []string, id string, st *warmState) []string {
	if states[id] == nil {
		order = append(order, id)
		p.streams.Add(1)
		if len(order) > p.cfg.MaxStreams {
			victim := 0
			for i, sid := range order[:len(order)-1] { // the new id is last, never the victim
				if !p.streamBusy(sid) {
					victim = i
					break
				}
			}
			sid := order[victim]
			order = append(order[:victim], order[victim+1:]...)
			delete(states, sid)
			p.streams.Add(-1)
			p.evictions.Inc()
		}
	} else {
		for i, sid := range order { // LRU touch: move to back
			if sid == id {
				order = append(append(order[:i], order[i+1:]...), id)
				break
			}
		}
	}
	states[id] = st
	return order
}

// runJob is one job's full attempt chain: the injected-fault hook, the
// watchdog-guarded backend call, and bounded retry-with-backoff for
// transient faults. A retry re-runs the frame from scratch with the
// same parameters, so a job that eventually succeeds still produces
// the deterministic fault-free output for its configuration.
func (p *Pool) runJob(ctx context.Context, im *imgio.Image, params sslic.Params) (*sslic.Result, error) {
	var r *sslic.Result
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			backoff := p.cfg.RetryBackoff << (attempt - 1)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			p.retries.Inc()
		}
		r, err = p.runAttempt(ctx, im, params)
		if err == nil || attempt >= p.cfg.Retries || !faults.IsTransient(err) || ctx.Err() != nil {
			return r, err
		}
	}
}

// runAttempt runs the backend once, under the stuck-worker watchdog
// when armed. The watchdog only engages for jobs with a deadline: a
// backend still running past deadline+grace is abandoned (the shard
// fails the frame and moves on; the orphaned goroutine's late result
// is discarded via its buffered channel).
func (p *Pool) runAttempt(ctx context.Context, im *imgio.Image, params sslic.Params) (*sslic.Result, error) {
	dl, hasDeadline := ctx.Deadline()
	if p.cfg.WatchdogGrace <= 0 || !hasDeadline {
		return p.runSegment(ctx, im, params)
	}
	type outcome struct {
		r   *sslic.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, err := p.runSegment(ctx, im, params)
		ch <- outcome{r, err}
	}()
	wd := time.NewTimer(time.Until(dl) + p.cfg.WatchdogGrace)
	defer wd.Stop()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-wd.C:
		p.stuck.Inc()
		return nil, fmt.Errorf("%w (grace %v past deadline)", ErrWorkerStuck, p.cfg.WatchdogGrace)
	}
}

// runSegment isolates the backend: a panic on one frame becomes that
// job's error instead of taking down the worker (and with it every
// stream sharded onto it). The pool.run injection point fires inside
// this recover so an injected panic simulates a crashing worker
// (ErrSegmentPanic) rather than killing the process, and an injected
// latency runs under the watchdog like real backend time.
func (p *Pool) runSegment(ctx context.Context, im *imgio.Image, params sslic.Params) (res *sslic.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", ErrSegmentPanic, v)
		}
	}()
	if err := faults.Fire(faults.PointPoolRun); err != nil {
		return nil, err
	}
	return p.cfg.Segment(ctx, im, params)
}

// Close drains the pool: no new submissions are admitted, jobs already
// queued run to completion (their callers are still waiting on Submit),
// and Close returns when every worker has exited. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, sh := range p.shards {
			close(sh)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
