// Command sslic-video simulates a frame stream end to end through the
// concurrent frame pipeline: a synthetic moving scene is rendered,
// segmented by a worker pool (warm-starting from previous centers), and
// each frame is scored for quality against exact ground truth and for
// temporal label consistency. Results are delivered in frame order
// regardless of worker count.
//
// Usage:
//
//	sslic-video -frames 10 -motion pan -speed 3
//	sslic-video -frames 6 -motion shake -cold
//	sslic-video -frames 32 -cold -pipeline-workers 8
//	sslic-video -frames 120 -telemetry-addr :9090   # curl :9090/metrics
//
// With -telemetry-addr the process serves /metrics (Prometheus),
// /healthz, /debug/vars and /debug/pprof/ while the stream runs: frame
// counters, per-stage latency histograms, and the accelerator model's
// DRAM/energy cost of the same stream, all scrapeable live.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/faults"
	"sslic/internal/hw"
	"sslic/internal/imgio"
	"sslic/internal/metrics"
	"sslic/internal/pipeline"
	"sslic/internal/quality"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/video"
	"sslic/internal/wire"
)

func main() {
	var (
		frames     = flag.Int("frames", 8, "number of frames")
		k          = flag.Int("k", 900, "superpixel count")
		speed      = flag.Int("speed", 3, "motion speed in px/frame")
		motion     = flag.String("motion", "pan", "motion: pan, drift or shake")
		seed       = flag.Int64("seed", 1, "scene seed")
		cold       = flag.Bool("cold", false, "disable warm starting (full iterations every frame)")
		warmIter   = flag.Int("warm-iters", 3, "iterations for warm-started frames")
		outDir     = flag.String("out", "", "write per-frame overlays to this directory")
		labelsFmt  = flag.String("labels-format", "", "also write each frame's label map to -out as frame<N>.<fmt>: slbl, slbl-rle or slbl-delta (delta frames encode against the previous frame's labels)")
		workers    = flag.Int("pipeline-workers", 1, "segment-stage worker count (<=0 uses all CPUs); warm streams shard frame f to worker f mod N")
		tileWork   = flag.Int("tile-workers", 0, "intra-frame row-band parallelism per frame (0/1 serial, -1 all CPUs)")
		datapath   = flag.String("datapath", "float64", "hot-loop arithmetic: float64, fixed (the integer LUT datapath the server serves) or coded4-coded10 (fixed at §6.1's code widths)")
		queue      = flag.Int("queue", 0, "most frames between render and delivery (<=0 selects 2x workers)")
		telAddr    = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof and /debug/trace on this address (e.g. :9090); empty disables")
		traceBuf   = flag.Int("trace-buffer", 64, "finished frame traces the flight recorder retains")
		traceAll   = flag.Bool("trace-all", false, "keep every frame trace (default keeps only slow or failed frames)")
		qualityCol = flag.Bool("quality", false, "print the live quality proxies per frame (inter-frame label churn and boundary density — the online stand-ins for the exact USE/BR columns)")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error (debug adds per-frame span traces)")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		faultSpec  = flag.String("faults", "", "fault-injection schedule, e.g. 'pool.run:error,every=5' (default off; see internal/faults)")
		faultSeed  = flag.Int64("faults-seed", 1, "seed for probabilistic fault schedules (deterministic per seed)")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logs := telemetry.NewLogger(telemetry.LoggerConfig{JSON: *logJSON, Level: level})
	reg := telemetry.NewRegistry()

	// Fault injection stays off (and zero-cost) without -faults.
	if *faultSpec != "" {
		inj, err := faults.NewFromSpec(*faultSeed, *faultSpec)
		if err != nil {
			fatal(err)
		}
		faults.Enable(inj)
		logs.Component("main").Warn("fault injection enabled", "spec", *faultSpec, "seed", *faultSeed)
	}

	var m video.Motion
	switch *motion {
	case "pan":
		m = video.Pan
	case "drift":
		m = video.Drift
	case "shake":
		m = video.Shake
	default:
		fatal(fmt.Errorf("unknown motion %q", *motion))
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	stream, err := video.NewStream(dataset.DefaultConfig(), *seed, m, *speed)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var labelsWire wire.Format
	if *labelsFmt != "" {
		var ok bool
		if labelsWire, ok = wire.ParseFormat(*labelsFmt); !ok {
			fatal(fmt.Errorf("unknown -labels-format %q (want slbl, slbl-rle or slbl-delta)", *labelsFmt))
		}
		if *outDir == "" {
			fatal(errors.New("-labels-format requires -out"))
		}
	}

	w, h := stream.Size()
	params := sslic.DefaultParams(*k, 0.5)
	params.Metrics = sslic.NewMetrics(reg)
	params.TileWorkers = *tileWork
	if params.Datapath, err = sslic.ParseDatapath(*datapath); err != nil {
		fatal(err)
	}

	// The accelerator model runs alongside the software stream: one
	// analytic simulation per frame mode (cold frames run the full
	// iteration budget, warm frames the reduced one), charged to the
	// hardware metrics as each frame is delivered. A scrape then shows
	// what this exact stream would cost the paper's accelerator in DRAM
	// traffic, scratchpad activity, and energy.
	hwm := hw.NewMetrics(reg)
	hwCfg := hw.DefaultConfig()
	hwCfg.Width, hwCfg.Height, hwCfg.K = w, h, *k
	hwCfg.SubsampleRatio = params.SubsampleRatio
	hwCfg.Passes = params.FullIters * params.Subsets()
	coldReport, err := hw.Simulate(hwCfg)
	if err != nil {
		fatal(err)
	}
	hwCfg.Passes = *warmIter * params.Subsets()
	warmReport, err := hw.Simulate(hwCfg)
	if err != nil {
		fatal(err)
	}

	// Per-frame flight recorder: every pipeline frame carries a trace
	// (queue waits, subset passes, hardware-model charges); the recorder
	// keeps the slow and failed ones — or all of them with -trace-all —
	// browsable at /debug/traces while the stream runs.
	rate := 0.0
	if *traceAll {
		rate = 1.0
	}
	recorder := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{
		Capacity: *traceBuf,
		HeadRate: rate,
	}, reg)

	var server *telemetry.Server
	if *telAddr != "" {
		server, err = telemetry.NewServer(telemetry.ServerConfig{
			Addr: *telAddr, Registry: reg, Logger: logs, Recorder: recorder,
		})
		if err != nil {
			fatal(err)
		}
		go server.Serve()
		defer server.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /healthz, /debug/vars, /debug/pprof, /debug/trace)\n", server.Addr())
	}

	fmt.Printf("stream: %s at %d px/frame, K=%d, %d frames\n", m, *speed, *k, *frames)
	if *qualityCol {
		fmt.Printf("%5s %5s %9s %8s %8s %12s %8s %8s\n", "frame", "mode", "time", "USE", "BR", "consistency", "churn", "bdens")
	} else {
		fmt.Printf("%5s %5s %9s %8s %8s %12s\n", "frame", "mode", "time", "USE", "BR", "consistency")
	}

	var pl *pipeline.Pipeline
	var prev *pipeline.Result
	sink := func(r *pipeline.Result) error {
		use, err := metrics.UndersegmentationError(r.Labels, r.GT)
		if err != nil {
			return err
		}
		br, err := metrics.BoundaryRecall(r.Labels, r.GT, 2)
		if err != nil {
			return err
		}
		tc := "-"
		if prev != nil {
			dxc, dyc := stream.Displacement(r.Index)
			dxp, dyp := stream.Displacement(r.Index - 1)
			c, err := video.TemporalConsistency(prev.Labels, r.Labels, dxc-dxp, dyc-dyp)
			if err != nil {
				return err
			}
			tc = fmt.Sprintf("%.3f", c)
		}
		// Charge the accelerator model's cost of this exact frame onto its
		// trace timeline (dram_charge / scratchpad_charge instants) as
		// well as the aggregate counters.
		tctx := telemetry.WithTrace(context.Background(), r.Trace)
		mode := "cold"
		if r.Warm {
			mode = "warm"
			hwm.ObserveReport(tctx, warmReport)
		} else {
			hwm.ObserveReport(tctx, coldReport)
		}
		if *qualityCol {
			// The online proxies, next to the exact offline metrics they
			// stand in for: churn (vs the previous frame's labels, like
			// the serving layer's delta-base compare) and boundary
			// density (the live BR proxy).
			churn := "-"
			if prev != nil {
				if changed, ok := quality.LabelChurn(r.Labels, prev.Labels); ok {
					churn = fmt.Sprintf("%.4f", float64(changed)/float64(w*h))
				}
			}
			fmt.Printf("%5d %5s %9s %8.4f %8.4f %12s %8s %8.4f\n",
				r.Index, mode, r.SegLatency.Round(time.Millisecond), use, br, tc,
				churn, quality.ScanLabels(r.Labels, len(r.Centers)).BoundaryDensity())
		} else {
			fmt.Printf("%5d %5s %9s %8.4f %8.4f %12s\n",
				r.Index, mode, r.SegLatency.Round(time.Millisecond), use, br, tc)
		}

		if *outDir != "" {
			path := fmt.Sprintf("%s/frame%03d.ppm", *outDir, r.Index)
			if err := imgio.WritePPMFile(path, imgio.Overlay(r.Image, r.Labels, 255, 0, 0)); err != nil {
				return err
			}
			if *labelsFmt != "" {
				// Deltas encode against the previous frame exactly like
				// the serving layer's per-stream base: consecutive frames
				// share most labels, so a static scene approaches zero
				// bytes per frame.
				var base *imgio.LabelMap
				if labelsWire == wire.Delta && prev != nil {
					base = prev.Labels
				}
				if err := writeWireLabels(
					fmt.Sprintf("%s/frame%03d.%s", *outDir, r.Index, *labelsFmt),
					labelsWire, r.Labels, base); err != nil {
					return err
				}
			}
		}
		// The previous result was only kept for temporal consistency; its
		// buffers can go back to the pool now.
		pl.Recycle(prev)
		prev = r
		return nil
	}

	pl, err = pipeline.New(pipeline.Config{
		Width: w, Height: h, Frames: *frames,
		Workers: *workers, QueueDepth: *queue,
		Params: params,
		Warm:   !*cold, WarmIters: *warmIter,
		Registry: reg, Recorder: recorder,
		Logger: logs.Component("pipeline"),
	}, stream.FrameInto, sink)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancels the stream context: the pipeline drains
	// (in-flight frames abort between subset passes, queued frames are
	// dropped) and the stats below still report what was delivered. A
	// second signal kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	t0 := time.Now()
	if err := pl.Run(ctx); err != nil {
		if !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		fmt.Println("interrupted: stream drained early")
	}
	wall := time.Since(t0)

	st := pl.Stats()
	fps := float64(st.Delivered) / wall.Seconds()
	fmt.Printf("throughput: %.1f frames/s software on this host (the accelerator model sustains 30 at 1080p)\n", fps)
	fmt.Printf("pipeline: workers=%d reorder-high-water=%d\n", *workers, st.ReorderHighWater)
	fmt.Printf("  source:  %s\n", st.Source)
	fmt.Printf("  segment: %s\n", st.Segment)
	fmt.Printf("  sink:    %s\n", st.Sink)
}

// writeWireLabels writes one frame's label map in the given wire
// framing (base is non-nil only for delta frames after the first).
func writeWireLabels(path string, f wire.Format, labels, base *imgio.LabelMap) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wire.Encode(out, f, labels, base); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslic-video:", err)
	os.Exit(1)
}
