package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/telemetry/testutil"
	"sslic/internal/video"
)

// testStream builds a small deterministic stream shared by the tests.
func testStream(t testing.TB) *video.Stream {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 64
	cfg.Regions = 8
	s, err := video.NewStream(cfg, 7, video.Pan, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testParams() sslic.Params { return sslic.DefaultParams(24, 0.5) }

// sequentialLabels reproduces the cmd/sslic-video frame loop: segment
// each frame in order, optionally warm-starting from the previous
// frame's centers, and collect the label maps.
func sequentialLabels(t *testing.T, s *video.Stream, frames int, warm bool, warmIters int) []*imgio.LabelMap {
	t.Helper()
	var out []*imgio.LabelMap
	var prev []slic.Center
	for f := 0; f < frames; f++ {
		img, _, err := s.Frame(f)
		if err != nil {
			t.Fatal(err)
		}
		p := testParams()
		if warm && prev != nil {
			p.InitialCenters = prev
			p.FullIters = warmIters
		}
		r, err := sslic.Segment(img, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Labels)
		prev = r.Centers
	}
	return out
}

// runPipeline drives a pipeline over the stream and returns the label
// maps in delivery order (cloned, since the pipeline recycles buffers).
func runPipeline(t *testing.T, s *video.Stream, cfg Config) []*imgio.LabelMap {
	t.Helper()
	w, h := s.Size()
	cfg.Width, cfg.Height = w, h
	var got []*imgio.LabelMap
	var pl *Pipeline
	sink := func(r *Result) error {
		got = append(got, r.Labels.Clone())
		pl.Recycle(r)
		return nil
	}
	pl, err := New(cfg, s.FrameInto, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return got
}

func labelsEqual(a, b *imgio.LabelMap) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

// TestColdMatchesSequential is the golden parity contract: in cold mode
// every frame is independent, so any worker count must deliver labels
// byte-identical to the sequential frame loop, in frame order.
func TestColdMatchesSequential(t *testing.T) {
	s := testStream(t)
	const frames = 6
	want := sequentialLabels(t, s, frames, false, 0)
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		got := runPipeline(t, s, Config{Frames: frames, Workers: workers, Params: testParams()})
		if len(got) != frames {
			t.Fatalf("workers=%d: delivered %d frames, want %d", workers, len(got), frames)
		}
		for f := range want {
			if !labelsEqual(want[f], got[f]) {
				t.Fatalf("workers=%d: frame %d labels differ from sequential loop", workers, f)
			}
		}
	}
}

// TestWarmSingleWorkerMatchesSequential: one warm shard is exactly the
// sequential warm-start loop of cmd/sslic-video.
func TestWarmSingleWorkerMatchesSequential(t *testing.T) {
	s := testStream(t)
	const frames, warmIters = 5, 3
	want := sequentialLabels(t, s, frames, true, warmIters)
	got := runPipeline(t, s, Config{
		Frames: frames, Workers: 1, Params: testParams(),
		Warm: true, WarmIters: warmIters,
	})
	for f := range want {
		if !labelsEqual(want[f], got[f]) {
			t.Fatalf("frame %d labels differ from sequential warm loop", f)
		}
	}
}

// TestWarmShardedDeterministic: the same sharded warm configuration
// twice gives identical output, and each shard's first frame is cold.
func TestWarmShardedDeterministic(t *testing.T) {
	s := testStream(t)
	const frames, workers = 8, 3
	run := func() ([]*imgio.LabelMap, []bool) {
		w, h := s.Size()
		var labels []*imgio.LabelMap
		var warm []bool
		var pl *Pipeline
		pl, err := New(Config{
			Width: w, Height: h, Frames: frames, Workers: workers,
			Params: testParams(), Warm: true, WarmIters: 3,
		}, s.FrameInto, func(r *Result) error {
			labels = append(labels, r.Labels.Clone())
			warm = append(warm, r.Warm)
			pl.Recycle(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return labels, warm
	}
	la, wa := run()
	lb, _ := run()
	for f := 0; f < frames; f++ {
		if !labelsEqual(la[f], lb[f]) {
			t.Fatalf("frame %d not repeatable under sharded warm start", f)
		}
		wantWarm := f >= workers // first frame of each shard is cold
		if wa[f] != wantWarm {
			t.Fatalf("frame %d warm=%v, want %v", f, wa[f], wantWarm)
		}
	}
}

// TestOrderedDelivery: the sink must see frame indices 0..N-1 strictly
// in order even with many workers racing.
func TestOrderedDelivery(t *testing.T) {
	s := testStream(t)
	const frames = 16
	w, h := s.Size()
	next := 0
	var pl *Pipeline
	pl, err := New(Config{
		Width: w, Height: h, Frames: frames, Workers: 4, QueueDepth: 2,
		Params: testParams(),
	}, s.FrameInto, func(r *Result) error {
		if r.Index != next {
			return fmt.Errorf("got frame %d, want %d", r.Index, next)
		}
		next++
		pl.Recycle(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if next != frames {
		t.Fatalf("delivered %d frames, want %d", next, frames)
	}
}

// TestCancellationDrains: cancelling mid-run returns context.Canceled,
// drains cleanly, and accounts for every started frame.
func TestCancellationDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := testStream(t)
	w, h := s.Size()
	ctx, cancel := context.WithCancel(context.Background())
	var pl *Pipeline
	delivered := 0
	pl, err := New(Config{
		Width: w, Height: h, Frames: 64, Workers: 4, Params: testParams(),
	}, s.FrameInto, func(r *Result) error {
		delivered++
		if delivered == 3 {
			cancel()
		}
		pl.Recycle(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	st := pl.Stats()
	if st.Delivered != int64(delivered) {
		t.Fatalf("stats delivered %d, sink saw %d", st.Delivered, delivered)
	}
	if st.Delivered+st.Dropped > st.Source.FramesOut {
		t.Fatalf("delivered %d + dropped %d exceeds sourced %d",
			st.Delivered, st.Dropped, st.Source.FramesOut)
	}
}

// TestSinkErrorCancels: a sink error aborts the run and surfaces.
func TestSinkErrorCancels(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := testStream(t)
	w, h := s.Size()
	boom := errors.New("boom")
	pl, err := New(Config{
		Width: w, Height: h, Frames: 32, Workers: 2, Params: testParams(),
	}, s.FrameInto, func(r *Result) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped boom", err)
	}
}

// TestSourceErrorCancels: a render error aborts the run and surfaces.
func TestSourceErrorCancels(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	boom := errors.New("render failed")
	render := func(tt int, img *imgio.Image, gt *imgio.LabelMap) error {
		if tt == 2 {
			return boom
		}
		return nil
	}
	pl, err := New(Config{
		Width: 32, Height: 32, Frames: 8, Workers: 2,
		Params: sslic.DefaultParams(4, 1),
	}, render, func(*Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped render error", err)
	}
}

// TestSegmentErrorCancels: invalid segmentation params fail the run.
func TestSegmentErrorCancels(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s := testStream(t)
	w, h := s.Size()
	bad := testParams()
	bad.Compactness = -1
	pl, err := New(Config{
		Width: w, Height: h, Frames: 4, Workers: 2, Params: bad,
	}, s.FrameInto, func(r *Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err == nil {
		t.Fatal("invalid params did not fail the run")
	}
}

// TestStatsCounters: a clean run accounts every frame through every
// stage and records latencies.
func TestStatsCounters(t *testing.T) {
	s := testStream(t)
	const frames = 10
	w, h := s.Size()
	var pl *Pipeline
	pl, err := New(Config{
		Width: w, Height: h, Frames: frames, Workers: 3, Params: testParams(),
	}, s.FrameInto, func(r *Result) error {
		time.Sleep(time.Millisecond) // give queues a chance to back up
		pl.Recycle(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	for name, stage := range map[string]StageStats{
		"source": st.Source, "segment": st.Segment, "sink": st.Sink,
	} {
		if stage.FramesIn != frames || stage.FramesOut != frames {
			t.Fatalf("%s: in=%d out=%d, want %d/%d", name, stage.FramesIn, stage.FramesOut, frames, frames)
		}
		if stage.LatencyMean <= 0 || stage.LatencyMax < stage.LatencyMean || stage.LatencyMean < stage.LatencyMin {
			t.Fatalf("%s: inconsistent latencies %v/%v/%v",
				name, stage.LatencyMin, stage.LatencyMean, stage.LatencyMax)
		}
	}
	if st.Delivered != frames || st.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d, want %d/0", st.Delivered, st.Dropped, frames)
	}
	if st.ReorderHighWater < 1 {
		t.Fatalf("reorder high water %d, want >= 1", st.ReorderHighWater)
	}
}

// TestNewValidation rejects broken configurations.
func TestNewValidation(t *testing.T) {
	render := func(int, *imgio.Image, *imgio.LabelMap) error { return nil }
	sink := func(*Result) error { return nil }
	if _, err := New(Config{Width: 0, Height: 4, Frames: 1}, render, sink); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Config{Width: 4, Height: 4, Frames: -1}, render, sink); err == nil {
		t.Error("negative frames accepted")
	}
	if _, err := New(Config{Width: 4, Height: 4, Frames: 1}, nil, sink); err == nil {
		t.Error("nil render accepted")
	}
	if _, err := New(Config{Width: 4, Height: 4, Frames: 1}, render, nil); err == nil {
		t.Error("nil sink accepted")
	}
}

// TestZeroFrames completes immediately with empty stats.
func TestZeroFrames(t *testing.T) {
	pl, err := New(Config{Width: 8, Height: 8, Frames: 0, Params: sslic.DefaultParams(4, 1)},
		func(int, *imgio.Image, *imgio.LabelMap) error { return nil },
		func(*Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Delivered != 0 || st.Source.FramesOut != 0 {
		t.Fatalf("unexpected stats for empty run: %+v", st)
	}
}

// TestWarmCPARunsCold: warm start needs PPA, so a warm pipeline with CPA
// params completes with every frame cold.
func TestWarmCPARunsCold(t *testing.T) {
	s := testStream(t)
	w, h := s.Size()
	params := testParams()
	params.Arch = sslic.CPA
	const frames = 3
	var warm []bool
	var pl *Pipeline
	pl, err := New(Config{
		Width: w, Height: h, Frames: frames, Workers: 1,
		Params: params, Warm: true,
	}, s.FrameInto, func(r *Result) error {
		warm = append(warm, r.Warm)
		pl.Recycle(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(warm) != frames {
		t.Fatalf("delivered %d frames, want %d", len(warm), frames)
	}
	for f, wf := range warm {
		if wf {
			t.Fatalf("CPA frame %d ran warm", f)
		}
	}
}

// TestPipelineRetriesTransientFault: frames segment on the pool, so a
// transient pool.run fault is retried and the labels equal a fault-free
// run byte for byte. One worker keeps the fault schedule deterministic:
// every other attempt fails, so each retry succeeds.
func TestPipelineRetriesTransientFault(t *testing.T) {
	s := testStream(t)
	cfg := Config{Frames: 6, Workers: 1, Params: testParams(), Warm: true}
	want := runPipeline(t, s, cfg)

	inj, err := faults.NewFromSpec(1, "pool.run:error,every=2")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	defer faults.Disable()
	cfg.Registry = telemetry.NewRegistry()
	got := runPipeline(t, s, cfg)
	faults.Disable()

	for f := range want {
		if !labelsEqual(want[f], got[f]) {
			t.Fatalf("frame %d labels differ from the fault-free run", f)
		}
	}
	if n := cfg.Registry.Counter("sslic_pool_retries_total", "").Value(); n <= 0 {
		t.Fatalf("sslic_pool_retries_total = %v, want > 0", n)
	}
}

// TestPipelineSegmentPanic: a panicking backend fails the run with an
// error matching ErrSegmentPanic, and the run still drains cleanly.
func TestPipelineSegmentPanic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	inj, err := faults.NewFromSpec(1, "pool.run:panic,every=3")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	defer faults.Disable()

	s := testStream(t)
	w, h := s.Size()
	pl, err := New(Config{
		Width: w, Height: h, Frames: 8, Workers: 2, Params: testParams(),
	}, s.FrameInto, func(r *Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); !errors.Is(err, ErrSegmentPanic) {
		t.Fatalf("Run returned %v, want ErrSegmentPanic", err)
	}
}

// TestPipelineFrameTrace: each frame's trace reads source → pool →
// S-SLIC phases → sink, with one pass event per subset pass of the
// frame's iteration budget.
func TestPipelineFrameTrace(t *testing.T) {
	s := testStream(t)
	w, h := s.Size()
	params := testParams()
	const frames, warmIters = 3, 2
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{HeadRate: 1}, nil)
	var ids []string
	var warm []bool
	pl, err := New(Config{
		Width: w, Height: h, Frames: frames, Workers: 1, Params: params,
		Warm: true, WarmIters: warmIters, Recorder: rec,
	}, s.FrameInto, func(r *Result) error {
		ids = append(ids, r.Trace.ID())
		warm = append(warm, r.Warm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ids) != frames {
		t.Fatalf("delivered %d frames, want %d", len(ids), frames)
	}
	for f, id := range ids {
		if warm[f] != (f > 0) {
			t.Fatalf("frame %d warm=%v, want %v", f, warm[f], f > 0)
		}
		iters := params.FullIters
		if warm[f] {
			iters = warmIters
		}
		want := []string{"pipeline:source/sslic_pipeline_stage", "pool/queue_wait", "sslic/colorconv", "sslic/init"}
		for i := 0; i < iters*params.Subsets(); i++ {
			want = append(want, "sslic/pass")
		}
		want = append(want, "sslic/connectivity", "pool/sslic_pool_job",
			"pipeline:sink/queue_wait", "pipeline:sink/sslic_pipeline_stage")
		td := rec.Lookup(id)
		if td == nil {
			t.Fatalf("frame %d: trace %q not recorded", f, id)
		}
		var got []string
		for _, ev := range td.Events {
			got = append(got, ev.Track+"/"+ev.Name)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("frame %d trace events:\n got %v\nwant %v", f, got, want)
		}
	}
}
