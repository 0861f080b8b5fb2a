package pipeline

import (
	"context"
	"strings"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// TestStageStatsCompleted pins the satellite fix: Completed lets a
// consumer distinguish "no frames yet" (count zero, latencies zero) from
// "very fast frames" (count positive, latencies possibly rounding to
// zero). Before the field existed, both cases read as all-zero stats.
func TestStageStatsCompleted(t *testing.T) {
	render := func(tt int, img *imgio.Image, gt *imgio.LabelMap) error {
		fillTestFrame(img, gt, tt)
		return nil
	}

	// Before Run: a fresh pipeline must report zero Completed everywhere.
	pl, err := New(Config{
		Width: 64, Height: 48, Frames: 3,
		Workers: 1, Params: sslic.DefaultParams(12, 0.5),
	}, render, func(r *Result) error { return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st := pl.Stats()
	for name, stage := range map[string]StageStats{"source": st.Source, "segment": st.Segment, "sink": st.Sink} {
		if stage.Completed != 0 {
			t.Fatalf("%s: Completed = %d before Run, want 0", name, stage.Completed)
		}
		if stage.LatencyMin != 0 || stage.LatencyMean != 0 || stage.LatencyMax != 0 {
			t.Fatalf("%s: nonzero latency before Run: %+v", name, stage)
		}
	}

	if err := pl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st = pl.Stats()
	for name, stage := range map[string]StageStats{"source": st.Source, "segment": st.Segment, "sink": st.Sink} {
		if stage.Completed != 3 {
			t.Fatalf("%s: Completed = %d, want 3", name, stage.Completed)
		}
		if stage.FramesOut != 3 {
			t.Fatalf("%s: FramesOut = %d, want 3", name, stage.FramesOut)
		}
	}
}

// TestPipelineSharedRegistry runs the pipeline against a caller-supplied
// registry and checks the stage series surface in Prometheus exposition
// with live values matching Stats — the "Stats is a thin view over the
// registry" contract.
func TestPipelineSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	render := func(tt int, img *imgio.Image, gt *imgio.LabelMap) error {
		fillTestFrame(img, gt, tt)
		return nil
	}
	pl, err := New(Config{
		Width: 64, Height: 48, Frames: 2,
		Workers: 1, Params: sslic.DefaultParams(12, 0.5),
		Registry: reg,
	}, render, func(r *Result) error { return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if pl.Registry() != reg {
		t.Fatalf("Registry() did not return the shared registry")
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`sslic_pipeline_frames_in_total{stage="source"} 2`,
		`sslic_pool_jobs_admitted_total 2`,
		`sslic_pool_job_seconds_count 2`,
		`sslic_pipeline_stage_seconds_count{stage="sink"} 2`,
		`sslic_pipeline_frames_delivered_total 2`,
		`sslic_pipeline_frames_dropped_total 0`,
		`sslic_pool_job_in_flight 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}

	st := pl.Stats()
	if st.Segment.Completed != 2 || st.Delivered != 2 {
		t.Fatalf("stats view disagrees with registry: %+v", st)
	}
}

// fillTestFrame renders a deterministic two-band frame.
func fillTestFrame(img *imgio.Image, gt *imgio.LabelMap, t int) {
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := y*img.W + x
			if (x+t)%img.W < img.W/2 {
				img.C0[i], img.C1[i], img.C2[i] = 200, 40, 40
				gt.Labels[i] = 0
			} else {
				img.C0[i], img.C1[i], img.C2[i] = 40, 200, 40
				gt.Labels[i] = 1
			}
		}
	}
}
