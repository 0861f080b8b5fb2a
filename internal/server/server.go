// Package server is the networked face of the S-SLIC reproduction: an
// HTTP segmentation service that accepts PPM/PNG frames, runs them
// through the pipeline.Pool worker layer, and returns label maps,
// boundary overlays or mean-color renders.
//
// The service is built for sustained load, not just functional
// correctness — the properties a real-time front end (the paper's 30 fps
// frame-budget argument, gSLICr's shared-service framing) actually
// needs:
//
//   - Admission control: the pool's bounded per-shard queues mean a
//     saturated service answers 429 + Retry-After immediately instead of
//     queueing unboundedly; in-flight memory is capped by
//     Workers × (QueueDepth+1) frames regardless of offered load.
//   - Deadlines: every request carries a context deadline (server
//     default, client-tightenable via ?timeout_ms=) that propagates
//     through the pool into sslic.SegmentContext, which aborts between
//     subset passes — an expired request stops consuming CPU within one
//     subset round.
//   - Warm starts: requests carrying ?stream= shard stickily by stream
//     ID, so consecutive frames of one client stream reuse the previous
//     frame's centers (fewer iterations, same quality — the video
//     pipeline's warm chains, keyed by client).
//   - Isolation: every handler runs behind panic-recovering middleware;
//     one poisoned request cannot take down the process.
//   - Drain: Drain stops admission (healthz flips to 503 for load
//     balancers) while queued and in-flight work completes; Close waits
//     for the workers.
//   - Observability: per-endpoint latency spans, response-code counters,
//     rejection counters by reason and the pool's queue-depth gauge all
//     live on one telemetry.Registry, shareable with the -telemetry-addr
//     server.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sslic/internal/bufpool"
	"sslic/internal/degrade"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/quality"
	"sslic/internal/slo"
	"sslic/internal/sslic"
	"sslic/internal/stream"
	"sslic/internal/telemetry"
	"sslic/internal/tenant"
	"sslic/internal/wire"
)

// Config sizes the service.
type Config struct {
	// Workers is the segmentation worker/shard count; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds each shard's admission queue; <= 0 selects 2.
	QueueDepth int
	// SegWorkers is the intra-frame parallelism (sslic.Params.TileWorkers)
	// of each request; 0 runs each frame serially, which keeps results
	// byte-deterministic across deployments on the float64 datapath (the
	// fixed datapath is byte-deterministic at every worker count).
	// Requests may override it with ?tile_workers=.
	SegWorkers int
	// DefaultK, DefaultRatio, DefaultIters, DefaultCompactness are the
	// segmentation defaults when the request does not override them.
	// Zero values select 900, 0.5, 10 and 10 (the paper's evaluation
	// setup).
	DefaultK           int
	DefaultRatio       float64
	DefaultIters       int
	DefaultCompactness float64
	// WarmIters is the iteration budget for warm-started frames; <= 0
	// selects 3.
	WarmIters int
	// MaxStreams caps the streams whose warm, delta and quality state
	// is kept, in total; <= 0 selects 64.
	MaxStreams int
	// MaxBodyBytes bounds the request body; exceeding it is a 413.
	// <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// MaxPixels bounds the decoded frame size; exceeding it is a 413.
	// <= 0 selects 4 Mpixel (comfortably above the paper's 1080p rows).
	MaxPixels int
	// RequestTimeout is the default per-request deadline; <= 0 selects
	// 10s. Clients may tighten (never extend) it via ?timeout_ms=,
	// capped at MaxTimeout (<= 0 selects 30s).
	RequestTimeout time.Duration
	MaxTimeout     time.Duration
	// DegradeInterval is the load-controller sampling interval; 0
	// selects 250ms, < 0 disables the sampling loop (the controller
	// still exists and can be driven via Degrade().Tick or pinned —
	// how the chaos suite holds a level steady).
	DegradeInterval time.Duration
	// Retries, RetryBackoff and WatchdogGrace pass through to the
	// pool's fault-recovery layer (see pipeline.PoolConfig). The
	// watchdog defaults on at 2s grace; RetryBackoff defaults per the
	// pool.
	Retries       int
	RetryBackoff  time.Duration
	WatchdogGrace time.Duration
	// BreakerThreshold is the backend panic count within BreakerWindow
	// that opens the panic circuit breaker (the segment endpoint
	// fast-fails 503 until a cooldown probe succeeds). 0 selects 3;
	// < 0 disables the breaker. BreakerWindow and BreakerCooldown
	// default to 10s and 2s.
	BreakerThreshold int
	BreakerWindow    time.Duration
	BreakerCooldown  time.Duration
	// Segment overrides the segmentation backend; nil selects
	// sslic.SegmentContext.
	Segment pipeline.SegmentFunc
	// Registry receives all service metrics; nil selects a private one.
	// Pass the same registry to a telemetry.Server to expose the series
	// alongside pprof.
	Registry *telemetry.Registry
	// Recorder, when set, enables end-to-end request tracing: every
	// /v1/segment request gets a trace (accepting a client X-Trace-Id or
	// assigning one, echoed back in the response header) whose timeline
	// covers decode → admission queue wait → every S-SLIC subset pass →
	// encode. Finished traces are retained by the recorder's sampling —
	// client-supplied IDs always, errors and slow requests always, plus
	// a head-sampled fraction of the rest — and are fetchable from
	// /debug/trace?id= on a telemetry.Server sharing this recorder. nil
	// disables tracing.
	Recorder *telemetry.FlightRecorder
	// SLOObjectives, when non-empty, enables the embedded SLO engine:
	// the objectives are evaluated every DegradeInterval tick over the
	// same observation window the degrade controller sees, exported on
	// the registry and at the SLOHandler, and fed back into the degrade
	// ladder, which counts a fast burn at SLOBurnThreshold as overload.
	SLOObjectives []slo.Objective
	// SLOFastWindow and SLOSlowWindow are the burn-rate windows in
	// ticks; zero selects the engine's defaults (20 and 240 — 5s and
	// 60s at the default 250ms tick).
	SLOFastWindow, SLOSlowWindow int
	// SLOBurnThreshold is the fast-burn level that edge-triggers an
	// automatic profile capture and counts as a burn alert; <= 0
	// disables alerting (budgets and burn rates are still tracked).
	SLOBurnThreshold float64
	// QualityMaxChurn, QualityMaxEmptyFrac and QualityMaxResidualDecay
	// are the quality-floor thresholds (see quality.Config): a frame
	// trips the floor when any enabled check fails, and a tick whose
	// frames mostly tripped pins the degrade ladder at its current
	// level until quality recovers. <= 0 disables a check; all three
	// disabled means the ladder is governed by load signals alone.
	// Quality proxies are tracked and exported either way.
	QualityMaxChurn         float64
	QualityMaxEmptyFrac     float64
	QualityMaxResidualDecay float64
	// Tenants, when non-empty, turns on multi-tenant fairness: requests
	// resolve to a tenant by API key (X-API-Key header, ?tenant= query
	// fallback; keyless requests are "_anon", unknown keys "_other"),
	// pass that tenant's token bucket and in-flight quota, and enter a
	// weighted-fair (deficit-round-robin) admission queue in front of
	// the pool, so one tenant's storm cannot starve another. Tenant
	// classes bias the degrade ladder per request (free +1 level,
	// premium -1 and never ladder-shed), panics feed per-tenant circuit
	// breakers, and per-stream cost/quality series get per-tenant label
	// budgets. Empty (the default) keeps the single-tenant behavior:
	// one shared FIFO, one breaker, global stream namespaces.
	// Typically built with tenant.ParseSpec (the -tenants flag).
	Tenants []tenant.Config
	// ProfileCapacity, ProfileCPUDuration and ProfileCooldown tune the
	// burn-triggered profile capturer (zero values select 8 bundles,
	// 250ms CPU windows, 30s cooldown). The capturer always exists —
	// on-demand captures work without an SLO engine — but automatic
	// captures need SLOObjectives and SLOBurnThreshold.
	ProfileCapacity    int
	ProfileCPUDuration time.Duration
	ProfileCooldown    time.Duration
	// Logger, when set, logs request rejections and recovered panics.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultK <= 0 {
		c.DefaultK = 900
	}
	if c.DefaultRatio <= 0 || c.DefaultRatio > 1 {
		c.DefaultRatio = 0.5
	}
	if c.DefaultIters <= 0 {
		c.DefaultIters = 10
	}
	if c.DefaultCompactness <= 0 {
		c.DefaultCompactness = 10
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = 4 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DegradeInterval == 0 {
		c.DegradeInterval = 250 * time.Millisecond
	}
	if c.WatchdogGrace == 0 {
		c.WatchdogGrace = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Server is the HTTP segmentation service. Construct with New, mount
// Handler on a listener, stop with Drain/Close.
type Server struct {
	cfg      Config
	pool     *pipeline.Pool
	mux      *http.ServeMux
	draining atomic.Bool

	degrade       *degrade.Controller
	tenants       *tenant.Registry    // nil when tenancy disabled
	brks          map[string]*breaker // by tenant ID, "" in single-tenant mode; nil when disabled
	retrySeq      atomic.Uint64       // deterministic Retry-After jitter sequence
	degradeCancel context.CancelFunc
	degradeDone   chan struct{}

	costs    *costAccountant
	quality  *quality.Tracker
	slo      *slo.Engine // nil when no objectives configured
	capturer *telemetry.Capturer
	runtime  *telemetry.RuntimeMetrics

	bufs    *bufpool.Pool
	streams *stream.Table // every stream's warm, delta and quality state

	inflightMu     sync.Mutex
	inflightTraces map[string]struct{} // trace IDs currently being served

	panics   *telemetry.Counter
	rejected map[string]*telemetry.Counter // by refusal reason
	latency  *telemetry.Spans              // the segment endpoint's

	// The control tick's previous reading; seeded once one was taken.
	tickMu sync.Mutex
	last   totals
	seeded bool
}

// New builds the service and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxTimeout < cfg.RequestTimeout {
		return nil, fmt.Errorf("server: MaxTimeout %v below RequestTimeout %v", cfg.MaxTimeout, cfg.RequestTimeout)
	}
	s := &Server{cfg: cfg}
	// The buffer pool recycles frame-sized buffers across requests — the
	// serving analogue of the accelerator's resident scratchpads — so
	// X-Cost-Alloc-Bytes reports measured fresh bytes.
	s.bufs = bufpool.New(bufpool.Config{Registry: cfg.Registry})
	// One table holds every stream's warm centers, delta base, quality
	// record and metric label.
	s.streams = stream.New(stream.Config{MaxStreams: cfg.MaxStreams,
		Recycle: s.bufs.PutLabelMap, Registry: cfg.Registry})
	s.pool = pipeline.NewPool(pipeline.PoolConfig{
		Workers:       cfg.Workers,
		QueueDepth:    cfg.QueueDepth,
		WarmIters:     cfg.WarmIters,
		Streams:       s.streams,
		Retries:       cfg.Retries,
		RetryBackoff:  cfg.RetryBackoff,
		WatchdogGrace: cfg.WatchdogGrace,
		Buffers:       s.bufs,
		Segment:       cfg.Segment,
		Registry:      cfg.Registry,
		Logger:        cfg.Logger,
	})
	s.panics = cfg.Registry.Counter("sslic_server_panics_total",
		"Handler panics recovered by the middleware.")
	s.rejected = make(map[string]*telemetry.Counter, len(refusals))
	for reason := range refusals {
		s.rejected[reason] = cfg.Registry.Counter("sslic_server_rejected_total",
			"Requests refused, by reason.", telemetry.Label{Name: "reason", Value: reason})
	}
	s.inflightTraces = make(map[string]struct{})
	if len(cfg.Tenants) > 0 {
		// The fair queue sits in front of the pool and holds exactly as
		// many requests as the pool can: every admitted request either
		// runs or occupies pool queue space, so pool saturation (429
		// from a full shard) becomes rare — contention surfaces as fair
		// queue wait instead.
		capacity := s.pool.Workers() + s.pool.QueueCapacity()
		s.tenants = tenant.NewRegistry(cfg.Tenants, capacity, cfg.Registry, nil)
		// Each tenant gets a fair slice of the per-stream metric label
		// budget (with its own _other overflow), so one tenant minting
		// stream IDs cannot exhaust it for everyone.
		s.streams.SetTenants(s.tenants.Len())
	}
	s.costs = newCostAccountant(cfg.Registry)
	s.runtime = telemetry.NewRuntimeMetrics(cfg.Registry)
	s.capturer = telemetry.NewCapturer(telemetry.CaptureConfig{
		Capacity:    cfg.ProfileCapacity,
		CPUDuration: cfg.ProfileCPUDuration,
		Cooldown:    cfg.ProfileCooldown,
		TraceIDs:    s.tracesInFlight,
		Runtime:     s.runtime.Snapshot,
		Registry:    cfg.Registry,
	})

	dcfg := degrade.Config{Registry: cfg.Registry, Logger: cfg.Logger}
	if len(cfg.SLOObjectives) > 0 {
		eng, err := slo.New(slo.Config{
			Objectives:    cfg.SLOObjectives,
			FastWindow:    cfg.SLOFastWindow,
			SlowWindow:    cfg.SLOSlowWindow,
			BurnThreshold: cfg.SLOBurnThreshold,
			OnBurn: func(objective string, fast, slow float64) {
				s.capturer.TryCapture("burn:" + objective)
			},
			Registry: cfg.Registry,
			Logger:   cfg.Logger,
		})
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.slo = eng
		// The engine feeds its max fast burn into the controller, so a
		// burning budget degrades quality before it exhausts.
		dcfg.BurnHigh = cfg.SLOBurnThreshold
	}
	s.degrade = degrade.New(dcfg)
	s.quality = quality.NewTracker(quality.Config{
		Registry:         cfg.Registry,
		Streams:          s.streams,
		MaxChurn:         cfg.QualityMaxChurn,
		MaxEmptyFrac:     cfg.QualityMaxEmptyFrac,
		MaxResidualDecay: cfg.QualityMaxResidualDecay,
		FloorFunc: func() (int, bool) {
			lvl, pinned := s.degrade.Floor()
			return int(lvl), pinned
		},
	})
	if cfg.BreakerThreshold > 0 {
		// One breaker per tenant: tenant A's poisoned frames open A's
		// circuit only — B's traffic never fast-fails for them. The
		// single-tenant server has one unlabeled breaker, under "".
		s.brks = map[string]*breaker{}
		if s.tenants == nil {
			s.brks[""] = newBreaker(cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown, cfg.Registry, nil)
		} else {
			for _, tn := range s.tenants.Tenants() {
				s.brks[tn.ID()] = newBreaker(cfg.BreakerThreshold, cfg.BreakerWindow,
					cfg.BreakerCooldown, cfg.Registry, nil,
					telemetry.Label{Name: "tenant", Value: tn.ID()})
			}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/segment", s.instrument("segment", s.handleSegment))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	if cfg.DegradeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.degradeCancel = cancel
		s.degradeDone = make(chan struct{})
		go func() {
			defer close(s.degradeDone)
			s.degrade.Run(ctx, cfg.DegradeInterval, s.SampleSignals)
		}()
	}
	return s, nil
}

// Degrade returns the load controller — the operator/override surface
// (Pin, Unpin) and the chaos suite's deterministic drive (Tick).
func (s *Server) Degrade() *degrade.Controller { return s.degrade }

// SLOEngine returns the embedded SLO engine, nil when no objectives
// are configured. Mount slo.Handler on a telemetry server to serve it.
func (s *Server) SLOEngine() *slo.Engine { return s.slo }

// Profiles returns the burn-triggered profile capturer. Mount
// telemetry.ProfilesHandler on a telemetry server to serve it.
func (s *Server) Profiles() *telemetry.Capturer { return s.capturer }

// Quality returns the tracker behind /debug/streams, for tests and
// embedding callers.
func (s *Server) Quality() *quality.Tracker { return s.quality }

// StreamsHandler serves the per-stream quality introspection document.
// Mount it at /debug/streams on a telemetry server.
func (s *Server) StreamsHandler() http.Handler { return s.quality.Handler() }

// tracesInFlight snapshots the trace IDs currently being served — the
// capturer's link between a profile bundle and the requests it
// overlapped with.
func (s *Server) tracesInFlight() []string {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	out := make([]string, 0, len(s.inflightTraces))
	for id := range s.inflightTraces {
		out = append(out, id)
	}
	return out
}

// Handler returns the service's HTTP handler (all endpoints behind the
// instrumenting, panic-isolating middleware).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry carrying the service metrics.
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// Drain flips the service into shedding mode: segmentation requests and
// health checks answer 503 (so load balancers stop routing here) while
// already-admitted work keeps running. Idempotent.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) && s.cfg.Logger != nil {
		s.cfg.Logger.Info("server draining: new requests shed, in-flight work finishing")
	}
}

// Close drains and then waits for every queued and in-flight job to
// finish, stopping the load-controller loop and waiting for a
// burn-triggered profile capture. Safe to call more than once.
func (s *Server) Close() {
	s.Drain()
	if s.degradeCancel != nil {
		s.degradeCancel()
		<-s.degradeDone
	}
	s.capturer.Wait()
	s.pool.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
}

// startTrace opens the request's flight-recorder trace. A valid client
// X-Trace-Id is honored and forces retention (the client asked for this
// exact flight); anything else gets a generated ID. The ID in effect is
// always echoed back in the X-Trace-Id response header so the client
// can fetch /debug/trace?id= afterwards. Returns nil when tracing is
// off — every Trace method no-ops on nil, so callers need no branches.
func (s *Server) startTrace(r *http.Request) *telemetry.Trace {
	if s.cfg.Recorder == nil {
		return nil
	}
	id := r.Header.Get("X-Trace-Id")
	forced := telemetry.ValidTraceID(id)
	if !forced {
		id = telemetry.NewTraceID()
	}
	s.inflightMu.Lock()
	s.inflightTraces[id] = struct{}{}
	s.inflightMu.Unlock()
	return s.cfg.Recorder.StartTrace(id, forced)
}

// endTrace finishes the trace and drops it from the in-flight set.
func (s *Server) endTrace(tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	s.inflightMu.Lock()
	delete(s.inflightTraces, tr.ID())
	s.inflightMu.Unlock()
	tr.Finish()
}

// handleSegment is the core endpoint: resolve tenant → admit →
// decode → segment → render. It fills the request record as it goes;
// stamp and finish derive everything else from it.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	rq := &w.(*statusRecorder).rq
	q := r.URL.Query()
	// Tenant identity resolves before anything else: the degrade level
	// offered, the breaker consulted and the admission queue entered
	// are all tenant-scoped. rq.tn stays nil in single-tenant mode.
	var tenantID string
	if s.tenants != nil {
		rq.tn = s.tenants.Resolve(tenantKey(r, q))
		tenantID = rq.tn.ID()
	}
	rq.brk = s.brks[tenantID]
	// The degradation level is read once and governs the whole request:
	// every response — drain and breaker fast-fails included — names
	// the level it was served at, the invariant the chaos suite and
	// clients rely on. With tenancy on, the global level is biased by
	// the tenant's class (free +1 and sheds at global level 3 already;
	// premium -1 and never ladder-shed) — X-Degradation-Level always
	// carries the effective, per-request level.
	rq.level = s.degrade.Level()
	if rq.tn != nil {
		rq.level = degrade.Level(rq.tn.EffectiveLevel(int(rq.level)))
	}
	// The trace opens before any refusal — drain included — so every
	// response carries X-Trace-Id: failures are the requests an
	// operator most needs to look up afterwards.
	rq.tr = s.startTrace(r)
	rq.cost = telemetry.NewCost()
	if s.draining.Load() {
		s.refuse(w, rq, "draining", nil)
		return
	}
	// Shedding is decided before the breaker so a shed request never
	// consumes the half-open probe slot.
	if rq.level >= degrade.Shed {
		s.refuse(w, rq, "shed", nil)
		return
	}
	ok, probeDone := rq.brk.allow()
	if !ok {
		s.refuse(w, rq, "breaker", nil)
		return
	}
	if probeDone != nil {
		// This request is the half-open probe. recordSuccess and
		// recordPanic settle the conclusive outcomes; this defer
		// settles every other exit (4xx, 429, 499, 504, faults) so
		// the probe slot can never leak.
		defer probeDone()
	}
	var err error
	if rq.opts, err = parseOptions(s.cfg, q); err != nil {
		s.refuse(w, rq, "bad_request", err)
		return
	}
	// The stream table key namespaces the stream by tenant
	// ("tenant/stream", "tenant/" without a stream), so two tenants both
	// naming "cam0" never share state. From here on opts.Stream is that
	// key, or "" for a request without a stream: it keeps no warm
	// centers or delta base, only its key's label and quality record.
	rq.key = rq.opts.Stream
	if rq.tn != nil {
		rq.key = tenantID + "/" + rq.key
	}
	if rq.opts.Stream != "" {
		rq.opts.Stream = rq.key
	}
	// The request deadline starts before fair-queue admission: time
	// parked behind other tenants is request latency the client's
	// timeout budget must cover, exactly like pool queue wait.
	ctx, cancel := context.WithTimeout(
		telemetry.WithCost(telemetry.WithTrace(r.Context(), rq.tr), rq.cost), rq.opts.Timeout)
	defer cancel()
	if rq.tn != nil {
		t0 := time.Now()
		wait, err := s.tenants.Admit(ctx, rq.tn)
		if err != nil {
			s.refuse(w, rq, reasonFor(err, "internal"), err)
			return
		}
		defer s.tenants.Release(rq.tn)
		if wait > 0 {
			rq.cost.AddQueueWait(wait)
			if rq.tr != nil {
				rq.tr.Emit("admit", "server", t0, wait, map[string]any{"tenant": tenantID})
			}
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	t0 := time.Now()
	// The decode target comes from the buffer pool and the ledger is
	// charged the bytes the pool really allocated (zero at steady state).
	im, err := decodeFrame(body, r.Header.Get("Content-Type"), s.cfg.MaxPixels, s.bufs.ImageAlloc(rq.cost))
	if err != nil {
		s.refuse(w, rq, reasonFor(err, "bad_request"), err)
		return
	}
	rq.cost.AddDecode(time.Since(t0))
	if rq.tr != nil {
		rq.tr.Emit("decode", "server", t0, time.Since(t0),
			map[string]any{"width": im.W, "height": im.H})
	}
	params := degrade.Apply(s.paramsFor(rq.opts), rq.level)
	if err := params.Validate(im.W, im.H); err != nil {
		s.refuse(w, rq, "bad_request", err)
		return
	}

	// The label buffer rides the job into the backend, which segments
	// straight into it (sslic's ledger charge for a fresh map is
	// skipped when LabelBuf is set — the pool's measured charge here
	// replaces the estimate).
	lbuf, fresh := s.bufs.GetLabelMap(im.W, im.H)
	rq.cost.AddAlloc(fresh)

	res, err := s.pool.Submit(ctx, pipeline.Job{Image: im, Params: params, StreamID: rq.opts.Stream, LabelBuf: lbuf})
	if err != nil {
		// The buffers are NOT recycled on any post-submit failure: a
		// watchdog-abandoned or canceled attempt's goroutine may still
		// be writing into them, so they are leaked to the garbage
		// collector rather than handed to the next request.
		s.refuse(w, rq, reasonFor(err, "internal"), err)
		return
	}
	rq.brk.recordSuccess()
	// Close the ledger before any body byte: the energy estimate runs
	// the hw analytic model for this exact workload, and the headers
	// stamped at the first byte carry it.
	s.costs.chargeEnergy(rq.cost, im, params, res, rq.tr)
	// The stream's delta base is taken out once, before any body byte:
	// it is both the churn comparand for the quality proxies and (for
	// the delta wire format) the encode base. Non-delta responses put
	// it back untouched so the table state is format-independent. A
	// base of another (W, H, K) is never found: its labels come from
	// another seed grid, so neither churn nor a delta against it means
	// anything. A request without a stream has no base.
	var base *imgio.LabelMap
	if rq.opts.Stream != "" {
		base = s.streams.TakeBase(rq.opts.Stream, im.W, im.H, params.K)
	}
	rq.served(res, im, base)
	s.writeResult(w, rq, im, base, params.K)
	// Success path: the response is fully written, no goroutine can
	// still touch these buffers — park them for the next request.
	s.bufs.PutImage(im)
	s.bufs.PutLabelMap(res.Result.Labels)
	if res.Result.Labels != lbuf {
		// The backend fell back to a fresh map (defensive: it only
		// would on a dimension mismatch); the untouched pooled
		// buffer is still clean to recycle.
		s.bufs.PutLabelMap(lbuf)
	}
}

// tenantKey extracts the request's API key: the X-API-Key header, or
// the ?tenant= query fallback for clients that cannot set headers.
// Empty means anonymous.
func tenantKey(r *http.Request, q url.Values) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return q.Get("tenant")
}

// writeResult renders the segmentation in the requested format. base
// is the stream's taken-out delta base at the frame's (W, H, k), nil
// when absent: the delta format encodes against and then replaces it;
// every other format restores it unchanged.
func (s *Server) writeResult(w http.ResponseWriter, rq *request, im *imgio.Image, base *imgio.LabelMap, k int) {
	labels, format := rq.res.Result.Labels, rq.opts.Format
	h := w.Header()
	t0 := time.Now()
	var err error
	switch format {
	case formatOverlay, formatMean:
		// Both renders draw in place into the decode buffer (the
		// encoders read it strictly behind the writes), so the render
		// target costs no allocation at all.
		if format == formatOverlay {
			imgio.OverlayInto(im, im, labels, 255, 0, 0)
		} else {
			imgio.MeanColorInto(im, im, labels)
		}
		if rq.opts.Encoding == encodingPNG {
			h.Set("Content-Type", "image/png")
			err = imgio.EncodePNG(w, im)
		} else {
			h.Set("Content-Type", "image/x-portable-pixmap")
			err = imgio.EncodePPM(w, im)
		}
	case formatLabels:
		h.Set("Content-Type", "application/octet-stream")
		err = wire.EncodeRaw(w, labels)
	case formatSLBL, formatSLBLRLE, formatSLBLDelta:
		wf, _ := wire.ParseFormat(format)
		h.Set("Content-Type", wf.ContentType())
		if wf == wire.Delta {
			err = s.writeDelta(w, rq.opts.Stream, labels, base, k)
			base = nil // consumed by writeDelta
		} else {
			err = wire.Encode(w, wf, labels, nil)
		}
	}
	if base != nil {
		// Non-delta format on a stream with a base: restore it so a
		// later delta request still has its comparand.
		s.streams.PutBase(rq.opts.Stream, base, im.W, im.H, k)
	}
	rq.cost.AddEncode(time.Since(t0))
	if rq.tr != nil {
		rq.tr.Emit("encode", "server", t0, time.Since(t0),
			map[string]any{"format": format, "warm": rq.res.Warm})
	}
	if err != nil {
		rq.tr.SetError(fmt.Errorf("response write failed: %w", err))
		if s.cfg.Logger != nil {
			// The status line is gone; all we can do is log the broken write.
			s.cfg.Logger.Debug("response write failed", "err", err)
		}
	}
}

// writeDelta encodes labels in the slbl-delta framing against the
// stream's previous response (already taken out by the caller; stamp
// declared it in X-Wire-Base), so the response stays decodable even
// when a concurrent request on the same stream holds the base.
// Afterwards the stream's base becomes this response's labels, unless
// the write failed: the client never got them, so the stream goes
// without a base and its next delta is empty.
func (s *Server) writeDelta(w http.ResponseWriter, stream string, labels, base *imgio.LabelMap, k int) error {
	if err := wire.EncodeDelta(w, labels, base); err != nil {
		s.bufs.PutLabelMap(base)
		return err
	}
	if stream == "" {
		return nil
	}
	// Reuse the taken-out buffer as the new base when possible; labels
	// itself is recycled by the caller, so the table keeps a copy.
	next := base
	if next == nil {
		next, _ = s.bufs.GetLabelMap(labels.W, labels.H)
	}
	copy(next.Labels, labels.Labels)
	s.streams.PutBase(stream, next, labels.W, labels.H, k)
	return nil
}

// paramsFor maps request options onto a full parameter set. Kept as a
// method so tests can build the exact params the server will run.
func (s *Server) paramsFor(o options) sslic.Params {
	p := sslic.DefaultParams(o.K, o.Ratio)
	p.FullIters = o.Iters
	p.Compactness = o.Compactness
	p.Datapath = o.Datapath
	p.TileWorkers = s.cfg.SegWorkers
	if o.TileWorkers >= 0 {
		p.TileWorkers = o.TileWorkers
	}
	return p
}

// instrument wraps a handler with the service middleware: a per-endpoint
// latency span (histogram + in-flight gauge), a response-code counter,
// and panic isolation. On /v1/segment it also finishes the request
// record once the handler has returned.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	lbl := telemetry.Label{Name: "endpoint", Value: endpoint}
	spans := telemetry.NewSpans(s.cfg.Registry, "sslic_server_request",
		"Per-request service time.", nil, s.cfg.Logger, lbl)
	// Only /v1/segment keeps a request record, and its latency feeds
	// the control tick.
	var srv *Server
	if endpoint == "segment" {
		s.latency, srv = spans, s
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, srv: srv}
		sp := spans.Start("method", r.Method, "path", r.URL.Path)
		defer func() {
			p := recover()
			if p != nil {
				s.panics.Inc()
				sp.Abort()
				if s.cfg.Logger != nil {
					buf := make([]byte, 4096)
					buf = buf[:runtime.Stack(buf, false)]
					s.cfg.Logger.Error("handler panic recovered",
						"endpoint", endpoint, "panic", fmt.Sprint(p), "stack", string(buf))
				}
				if sr.code == 0 {
					http.Error(sr, "internal error", http.StatusInternalServerError)
				}
			} else {
				sp.End()
			}
			code := sr.code
			if code == 0 {
				code = http.StatusOK
			}
			s.cfg.Registry.Counter("sslic_server_responses_total",
				"Responses sent, by endpoint and status code.",
				lbl, telemetry.Label{Name: "code", Value: strconv.Itoa(code)}).Inc()
			if sr.srv != nil {
				s.finish(&sr.rq, code, p != nil)
			}
		}()
		h(sr, r)
	})
}

// statusRecorder captures the response code for the metrics middleware.
// On /v1/segment (srv set) it also holds the request record and stamps
// the record's headers once, before the first body byte.
type statusRecorder struct {
	http.ResponseWriter
	code int
	srv  *Server
	rq   request
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
		if s.srv != nil {
			s.srv.stamp(s.Header(), &s.rq)
		}
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.WriteHeader(http.StatusOK)
	}
	return s.ResponseWriter.Write(b)
}
