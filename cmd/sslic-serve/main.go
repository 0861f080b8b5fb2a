// Command sslic-serve runs the S-SLIC segmentation service: an HTTP
// front end that accepts PPM/PNG frames and returns label maps,
// boundary overlays or mean-color renders, with admission control,
// per-request deadlines, warm-started client streams and graceful
// drain.
//
// Usage:
//
//	sslic-serve -addr :8080
//	sslic-serve -addr :8080 -workers 4 -queue 2 -request-timeout 500ms
//	sslic-serve -addr :8080 -telemetry-addr :9090   # metrics + pprof
//
// Segment a frame:
//
//	curl -s --data-binary @frame.ppm 'localhost:8080/v1/segment?k=900' > labels.bin
//	curl -s --data-binary @frame.png 'localhost:8080/v1/segment?k=400&format=overlay&encoding=png' > overlay.png
//	curl -s --data-binary @frame.ppm 'localhost:8080/v1/segment?stream=cam0' > labels.bin  # warm-starts per stream
//
// Trace a request end to end (with -telemetry-addr :9090):
//
//	curl -s -o /dev/null -H 'X-Trace-Id: debug-1' --data-binary @frame.ppm 'localhost:8080/v1/segment?k=900'
//	curl -s 'localhost:9090/debug/trace?id=debug-1' > trace.json   # load in chrome://tracing or ui.perfetto.dev
//
// The service sheds load instead of queueing it: when every worker and
// queue slot is busy it answers 429 + Retry-After immediately, keeping
// memory bounded under any offered load. SIGINT/SIGTERM triggers a
// drain — health checks flip to 503 so load balancers stop routing
// here, in-flight requests finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sslic/internal/faults"
	"sslic/internal/server"
	"sslic/internal/slo"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "service listen address")
		workers      = flag.Int("workers", 0, "segmentation workers/shards (<=0 uses all CPUs)")
		queue        = flag.Int("queue", 2, "admission queue depth per worker; beyond it requests get 429")
		segWorkers   = flag.Int("seg-workers", 0, "intra-frame parallelism per request (0 keeps results byte-deterministic on the float64 datapath; overridable via ?tile_workers=)")
		datapath     = flag.String("datapath", "float64", "default hot-loop arithmetic: float64 or fixed (the integer LUT datapath; overridable via ?datapath=)")
		k            = flag.Int("k", 900, "default superpixel count (overridable per request via ?k=)")
		ratio        = flag.Float64("ratio", 0.5, "default subsample ratio (?ratio=)")
		iters        = flag.Int("iters", 10, "default full iterations (?iters=)")
		compactness  = flag.Float64("compactness", 10, "default compactness (?compactness=)")
		warmIters    = flag.Int("warm-iters", 3, "iterations for warm-started stream frames")
		maxStreams   = flag.Int("max-streams", 64, "warm-start states kept per worker before evicting the oldest stream")
		maxBody      = flag.Int64("max-body-bytes", 32<<20, "request body limit; beyond it requests get 413")
		maxPixels    = flag.Int("max-pixels", 4<<20, "decoded frame pixel limit; beyond it requests get 413")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "default per-request deadline (tightenable via ?timeout_ms=)")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "upper bound on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "total budget for a graceful drain: listeners close immediately, then in-flight requests and queued work get this long before the process exits anyway")
		faultSpec    = flag.String("faults", "", "fault-injection schedule, e.g. 'sslic.pass:error,prob=0.01;pool.run:latency=20ms,every=50' (default off; see internal/faults)")
		faultSeed    = flag.Int64("faults-seed", 1, "seed for probabilistic fault schedules (deterministic per seed)")
		degradeEvery = flag.Duration("degrade-interval", 250*time.Millisecond, "load-controller sampling interval for adaptive degradation (<0 disables)")
		telAddr      = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof and /debug/trace on this extra address; empty disables")
		traceBuf     = flag.Int("trace-buffer", 256, "finished traces the flight recorder retains (oldest overwritten)")
		traceSlow    = flag.Duration("trace-slow", 100*time.Millisecond, "requests at or above this latency are always kept in the flight recorder")
		traceRate    = flag.Float64("trace-sample", 0.01, "fraction of ordinary requests kept (errors, slow requests and explicit X-Trace-Id requests are always kept)")
		tenantSpec   = flag.String("tenants", "", "multi-tenant admission spec, e.g. 'acme:class=premium,rate=100,burst=20;free-tier:class=free,rate=5' (empty keeps the single-tenant path; see internal/tenant)")
		sloSpec      = flag.String("slo", "", "SLO objectives, e.g. 'latency,threshold=50ms,budget=0.01;availability,budget=0.001;energy,target_pj=9e9,budget=0.05' (empty disables the engine; see internal/slo)")
		sloBurn      = flag.Float64("slo-burn-threshold", 10, "fast-window burn rate that triggers an automatic profile capture and feeds the degrade ladder (<=0 disables alerting)")
		sloFastWin   = flag.Int("slo-fast-window", 0, "fast burn window in degrade ticks (0 selects 20 — 5s at the default 250ms tick)")
		sloSlowWin   = flag.Int("slo-slow-window", 0, "slow burn window in degrade ticks (0 selects 240 — 60s at the default tick)")
		profCap      = flag.Int("profile-capacity", 8, "profile bundles retained by the burn-triggered capturer")
		profCPUDur   = flag.Duration("profile-cpu-duration", 250*time.Millisecond, "CPU sampling window per profile capture")
		profCooldown = flag.Duration("profile-cooldown", 30*time.Second, "minimum spacing between burn-triggered captures (on-demand captures ignore it)")
		qMaxChurn    = flag.Float64("quality-max-churn", 0, "inter-frame label churn ratio above which a frame counts as quality-collapsed; collapse pins the degrade ladder at its current level (<=0 disables)")
		qMaxEmpty    = flag.Float64("quality-max-empty", 0, "empty-cluster fraction above which a frame counts as quality-collapsed (<=0 disables)")
		qMaxDecay    = flag.Float64("quality-max-residual-decay", 0, "final/first residual ratio above which a cold frame counts as non-converged (<=0 disables)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	var dp sslic.DatapathKind
	switch *datapath {
	case "float64":
		dp = sslic.Float64
	case "fixed":
		dp = sslic.Fixed
	default:
		fatal(fmt.Errorf("unknown -datapath %q (want float64 or fixed)", *datapath))
	}

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logs := telemetry.NewLogger(telemetry.LoggerConfig{JSON: *logJSON, Level: level})
	mainLog := logs.Component("main")
	reg := telemetry.NewRegistry()

	// Fault injection is always off unless -faults is given; the planted
	// hooks cost one atomic load when disabled.
	if *faultSpec != "" {
		inj, err := faults.NewFromSpec(*faultSeed, *faultSpec)
		if err != nil {
			fatal(err)
		}
		faults.Enable(inj)
		mainLog.Warn("fault injection enabled", "spec", *faultSpec, "seed", *faultSeed)
	}

	// The flight recorder is always on: fixed memory (trace-buffer
	// finished traces), overwrite-oldest, so the last N interesting
	// requests are reconstructable from /debug/trace after the fact.
	recorder := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{
		Capacity:      *traceBuf,
		HeadRate:      *traceRate,
		SlowThreshold: *traceSlow,
	}, reg)

	var objectives []slo.Objective
	if *sloSpec != "" {
		objectives, err = slo.ParseObjectives(*sloSpec)
		if err != nil {
			fatal(err)
		}
	}

	var tenants []tenant.Config
	if *tenantSpec != "" {
		tenants, err = tenant.ParseSpec(*tenantSpec)
		if err != nil {
			fatal(err)
		}
		mainLog.Info("multi-tenant admission enabled", "tenants", len(tenants))
	}

	svc, err := server.New(server.Config{
		Workers:                 *workers,
		QueueDepth:              *queue,
		SegWorkers:              *segWorkers,
		Datapath:                dp,
		DefaultK:                *k,
		DefaultRatio:            *ratio,
		DefaultIters:            *iters,
		DefaultCompactness:      *compactness,
		WarmIters:               *warmIters,
		MaxStreams:              *maxStreams,
		MaxBodyBytes:            *maxBody,
		MaxPixels:               *maxPixels,
		RequestTimeout:          *reqTimeout,
		MaxTimeout:              *maxTimeout,
		DegradeInterval:         *degradeEvery,
		QualityMaxChurn:         *qMaxChurn,
		QualityMaxEmptyFrac:     *qMaxEmpty,
		QualityMaxResidualDecay: *qMaxDecay,
		Registry:                reg,
		Recorder:                recorder,
		Tenants:                 tenants,
		SLOObjectives:           objectives,
		SLOFastWindow:           *sloFastWin,
		SLOSlowWindow:           *sloSlowWin,
		SLOBurnThreshold:        *sloBurn,
		ProfileCapacity:         *profCap,
		ProfileCPUDuration:      *profCPUDur,
		ProfileCooldown:         *profCooldown,
		Logger:                  logs.Component("server"),
	})
	if err != nil {
		fatal(err)
	}

	// The optional telemetry server shares the service registry, so its
	// /metrics carries the request spans, rejection counters and pool
	// gauges alongside pprof — one scrape endpoint for the whole process.
	if *telAddr != "" {
		tel, err := telemetry.NewServer(telemetry.ServerConfig{
			Addr: *telAddr, Registry: reg, Logger: logs, Recorder: recorder,
			SLO:      slo.Handler(svc.SLOEngine()),
			Profiles: telemetry.ProfilesHandler(svc.Profiles()),
			Streams:  svc.StreamsHandler(),
			Tenants:  svc.TenantsHandler(),
		})
		if err != nil {
			fatal(err)
		}
		go tel.Serve()
		defer tel.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /healthz, /debug/vars, /debug/pprof, /debug/trace, /debug/slo, /debug/streams, /debug/tenants, /debug/profiles)\n", tel.Addr())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful drain: on the first signal, stop admitting (healthz flips
	// to 503 for load balancers), let in-flight requests finish within
	// the grace period, then exit. A second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	fmt.Printf("sslic-serve: listening on %s (POST /v1/segment)\n", *addr)

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills the process
		mainLog.Info("signal received, draining", "timeout", *drainTimeout)
		deadline := time.Now().Add(*drainTimeout)
		// Stop accepting FIRST: Shutdown closes the listeners
		// immediately (new connections are refused at the socket, which
		// load balancers notice faster than any 503), then waits for
		// in-flight requests, bounded by the drain budget.
		sctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		svc.Drain() // shed anything still arriving on kept-alive connections
		if err := httpSrv.Shutdown(sctx); err != nil {
			mainLog.Warn("shutdown incomplete, in-flight requests abandoned", "err", err)
		}
		// Then drain the segmentation layer within the remaining budget;
		// a pool wedged past the deadline must not stop the exit.
		closed := make(chan struct{})
		go func() { svc.Close(); close(closed) }()
		select {
		case <-closed:
			mainLog.Info("drained, exiting")
		case <-time.After(time.Until(deadline)):
			mainLog.Warn("drain timeout exceeded, exiting with queued work abandoned")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslic-serve:", err)
	os.Exit(1)
}
