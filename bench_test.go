package sslic

// Benchmarks regenerating the paper's evaluation, one per table and
// figure (run with `go test -bench=. -benchmem`). The Benchmark*
// functions exercise the same code paths as cmd/sslic-bench; per-op cost
// is dominated by the experiment itself, so b.N loops re-run the whole
// experiment. Quality experiments use the trimmed Quick corpus to keep
// benchmark wall time sane; cmd/sslic-bench runs them at paper scale.

import (
	"context"
	"image"
	"runtime"
	"testing"

	"sslic/internal/bench"
	"sslic/internal/dataset"
	"sslic/internal/hw"
	"sslic/internal/pipeline"
	"sslic/internal/slic"
	islic "sslic/internal/sslic"
	"sslic/internal/video"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := bench.QuickOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a regenerates the USE-vs-runtime curves of Figure 2a.
func BenchmarkFig2a(b *testing.B) { runExperiment(b, "fig2a") }

// BenchmarkFig2b regenerates the boundary-recall-vs-runtime curves of
// Figure 2b.
func BenchmarkFig2b(b *testing.B) { runExperiment(b, "fig2b") }

// BenchmarkTable1 regenerates the phase-time breakdown of Table 1.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates the CPA/PPA bandwidth and op analysis of
// Table 2.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkBitWidth regenerates the §6.1 bit-width exploration.
func BenchmarkBitWidth(b *testing.B) { runExperiment(b, "bitwidth") }

// BenchmarkTable3 regenerates the Cluster Update Unit DSE of Table 3.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig6 regenerates the buffer-size sweep of Figure 6.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable4 regenerates the resolution summary of Table 4.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5 regenerates the GPU comparison of Table 5.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkAblationSchemes regenerates the subsampling-scheme ablation.
func BenchmarkAblationSchemes(b *testing.B) { runExperiment(b, "ablation-schemes") }

// BenchmarkAblationArch regenerates the PPA-vs-CPA quality ablation.
func BenchmarkAblationArch(b *testing.B) { runExperiment(b, "ablation-arch") }

// BenchmarkAblationPreemptive regenerates the preemptive-composition
// ablation.
func BenchmarkAblationPreemptive(b *testing.B) { runExperiment(b, "ablation-preemptive") }

// --- Micro-benchmarks of the core kernels ---

var benchSample *dataset.Sample

func sample(b *testing.B) *dataset.Sample {
	b.Helper()
	if benchSample == nil {
		s, err := dataset.Generate(dataset.DefaultConfig(), 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSample = s
	}
	return benchSample
}

// BenchmarkSegmentSLIC measures reference SLIC on one Berkeley-sized
// frame (K=900, 10 iterations).
func BenchmarkSegmentSLIC(b *testing.B) {
	s := sample(b)
	p := islic.DefaultParams(900, 1)
	p.Arch = islic.SLIC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := islic.Segment(s.Image, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentSSLICHalf measures S-SLIC(0.5) on the same frame.
func BenchmarkSegmentSSLICHalf(b *testing.B) {
	s := sample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := islic.Segment(s.Image, islic.DefaultParams(900, 0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentSSLICQuarter measures S-SLIC(0.25).
func BenchmarkSegmentSSLICQuarter(b *testing.B) {
	s := sample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := islic.Segment(s.Image, islic.DefaultParams(900, 0.25)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColorConversion measures the reference float64 RGB→Lab path
// on one frame.
func BenchmarkColorConversion(b *testing.B) {
	s := sample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slic.ToLab(s.Image)
	}
}

// BenchmarkAcceleratorSim measures one frame of the analytic hardware
// model.
func BenchmarkAcceleratorSim(b *testing.B) {
	cfg := hw.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeSegment measures the public API end to end on a small
// frame.
func BenchmarkFacadeSegment(b *testing.B) {
	img := image.NewRGBA(image.Rect(0, 0, 160, 120))
	for i := range img.Pix {
		img.Pix[i] = uint8(i * 31)
	}
	opt := DefaultOptions(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Segment(img, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtDVFS regenerates the clock/voltage scaling extension.
func BenchmarkExtDVFS(b *testing.B) { runExperiment(b, "ext-dvfs") }

// BenchmarkExtBandwidth regenerates the DRAM bandwidth sensitivity
// extension.
func BenchmarkExtBandwidth(b *testing.B) { runExperiment(b, "ext-bandwidth") }

// BenchmarkExtMulticore regenerates the core-count scaling extension.
func BenchmarkExtMulticore(b *testing.B) { runExperiment(b, "ext-multicore") }

// BenchmarkExtFuncSim regenerates the functional-vs-analytic model
// cross-check.
func BenchmarkExtFuncSim(b *testing.B) { runExperiment(b, "ext-funcsim") }

// BenchmarkExtConvergence regenerates the residual-decay-per-scheme
// extension.
func BenchmarkExtConvergence(b *testing.B) { runExperiment(b, "ext-convergence") }

// BenchmarkFuncSimFrame measures the bit-accurate pipeline on a small
// frame end to end, one simulator running every frame.
func BenchmarkFuncSimFrame(b *testing.B) {
	cfg := hw.DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = 192, 128, 96
	cfg.BufferBytesPerChannel = 1024
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 192, 128
	dcfg.Regions = 10
	s, err := dataset.Generate(dcfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := hw.NewFuncSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fs.Run(s.Image); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtPower regenerates the power-breakdown extension.
func BenchmarkExtPower(b *testing.B) { runExperiment(b, "ext-power") }

// BenchmarkExtResolutionQuality regenerates the cross-resolution quality
// extension.
func BenchmarkExtResolutionQuality(b *testing.B) { runExperiment(b, "ext-resolution-quality") }

// BenchmarkExtTemporal regenerates the warm-start stream extension.
func BenchmarkExtTemporal(b *testing.B) { runExperiment(b, "ext-temporal") }

// BenchmarkExtKSweep regenerates the quality-vs-K extension.
func BenchmarkExtKSweep(b *testing.B) { runExperiment(b, "ext-ksweep") }

// BenchmarkAblationSLICO regenerates the SLIC-vs-SLICO ablation.
func BenchmarkAblationSLICO(b *testing.B) { runExperiment(b, "ablation-slico") }

// BenchmarkSegmentSSLICParallel measures the multi-worker PPA pass on
// one Berkeley-sized frame.
func BenchmarkSegmentSSLICParallel(b *testing.B) {
	s := sample(b)
	p := islic.DefaultParams(900, 0.5)
	p.TileWorkers = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := islic.Segment(s.Image, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineThroughput compares the sequential frame loop against
// the concurrent frame pipeline on the same cold-start workload and
// reports frames/sec. On a multi-core host the pipeline with NumCPU
// workers should beat the sequential loop by well over 1.5×; on one core
// only the source/sink overlap remains.
func BenchmarkPipelineThroughput(b *testing.B) {
	const frames = 8
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 160, 120
	cfg.Regions = 12
	stream, err := video.NewStream(cfg, 5, video.Pan, 3)
	if err != nil {
		b.Fatal(err)
	}
	params := islic.DefaultParams(64, 0.5)

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for f := 0; f < frames; f++ {
				img, _, err := stream.Frame(f)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := islic.Segment(img, params); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/sec")
	})

	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		w, h := stream.Size()
		for i := 0; i < b.N; i++ {
			var pl *pipeline.Pipeline
			pl, err := pipeline.New(pipeline.Config{
				Width: w, Height: h, Frames: frames,
				Workers: runtime.GOMAXPROCS(0),
				Params:  params,
			}, stream.FrameInto, func(r *pipeline.Result) error {
				pl.Recycle(r)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/sec")
	})
}
