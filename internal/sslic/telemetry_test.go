package sslic

import (
	"context"
	"strings"
	"testing"

	"sslic/internal/telemetry"
)

// TestMetricsRecordRun checks that an instrumented Segment call feeds
// the registry: run/pass latencies, distance-calc counters matching the
// returned Stats, round progress reaching 1, and a residual gauge.
func TestMetricsRecordRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)

	im := testImage(64, 48)
	p := DefaultParams(12, 0.5)
	p.Metrics = m
	r, err := Segment(im, p)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}

	if got := m.Segmentations.Value(); got != 1 {
		t.Fatalf("segmentations = %g, want 1", got)
	}
	if got := m.DistanceCalcs.Value(); got != float64(r.Stats.DistanceCalcs) {
		t.Fatalf("distance calcs metric %g != stats %d", got, r.Stats.DistanceCalcs)
	}
	if got := m.SubsetPasses.Value(); got != float64(r.Stats.SubsetPasses) {
		t.Fatalf("subset passes metric %g != stats %d", got, r.Stats.SubsetPasses)
	}
	if got := m.RoundProgress.Value(); got != 1 {
		t.Fatalf("round progress = %g, want 1 after a full run", got)
	}
	if snap := m.SegLatency.Snapshot(); snap.Count != 1 || snap.Sum <= 0 {
		t.Fatalf("segment latency histogram count=%d sum=%g", snap.Count, snap.Sum)
	}
	if snap := m.PassLatency.Snapshot(); snap.Count != uint64(r.Stats.SubsetPasses) {
		t.Fatalf("pass latency count = %d, want %d", snap.Count, r.Stats.SubsetPasses)
	}

	// Residual matches the last MoveHistory entry.
	last := r.Stats.MoveHistory[len(r.Stats.MoveHistory)-1]
	if got := m.Residual.Value(); got != last {
		t.Fatalf("residual gauge %g != last move %g", got, last)
	}

	// The series surface under their exported names.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	for _, name := range []string{
		"sslic_distance_calcs_total",
		"sslic_subset_round_progress",
		"sslic_center_residual",
		"sslic_pass_seconds_bucket",
	} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("exposition missing %s:\n%s", name, b.String())
		}
	}
}

// TestMetricsNilIsNoop: a nil Metrics must not panic anywhere — the
// zero-cost default for uninstrumented runs.
func TestMetricsNilIsNoop(t *testing.T) {
	im := testImage(32, 32)
	p := DefaultParams(8, 0.5)
	p.Metrics = nil
	if _, err := Segment(im, p); err != nil {
		t.Fatalf("Segment without metrics: %v", err)
	}
}

// TestMetricsAccumulateAcrossRuns: one Metrics shared by several runs
// accumulates counters, the way a video stream shares one handle.
func TestMetricsAccumulateAcrossRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	im := testImage(32, 32)
	p := DefaultParams(8, 0.5)
	p.Metrics = m
	var calcs int64
	for i := 0; i < 3; i++ {
		r, err := Segment(im, p)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		calcs += r.Stats.DistanceCalcs
	}
	if got := m.Segmentations.Value(); got != 3 {
		t.Fatalf("segmentations = %g, want 3", got)
	}
	if got := m.DistanceCalcs.Value(); got != float64(calcs) {
		t.Fatalf("distance calcs %g, want %d", got, calcs)
	}
}

// TestPassTraceNamesDatapath: every pass event names the datapath that
// ran it by its one name, the coded widths included.
func TestPassTraceNamesDatapath(t *testing.T) {
	im := testImage(32, 32)
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
	for _, d := range allDatapaths() {
		tr := fr.StartTrace(d.String(), true)
		p := DefaultParams(9, 0.5)
		p.FullIters = 1
		p.Datapath = d
		if _, err := SegmentContext(telemetry.WithTrace(context.Background(), tr), im, p); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		tr.Finish()
		passes := 0
		for _, ev := range fr.Lookup(d.String()).Events {
			if ev.Name != "pass" {
				continue
			}
			passes++
			if ev.Args["datapath"] != d.String() {
				t.Errorf("%v: pass event names datapath %v", d, ev.Args["datapath"])
			}
		}
		if passes != 2 {
			t.Errorf("%v: %d pass events, want 2", d, passes)
		}
	}
}
