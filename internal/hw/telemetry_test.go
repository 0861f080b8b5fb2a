package hw

import (
	"context"
	"strings"
	"testing"

	"sslic/internal/telemetry"
)

func TestObserveReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)

	cfg := DefaultConfig()
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if r.ScratchReads <= 0 || r.ScratchWrites <= 0 {
		t.Fatalf("report has no scratch accesses")
	}

	m.ObserveReport(context.Background(), r)
	m.ObserveReport(context.Background(), r)

	if got := m.Frames.Value(); got != 2 {
		t.Fatalf("frames = %g, want 2", got)
	}
	if got := m.DRAMBytes.Value(); got != float64(2*r.TrafficBytes) {
		t.Fatalf("dram bytes %g, want %d", got, 2*r.TrafficBytes)
	}
	if got := m.ScratchMisses.Value(); got != float64(2*r.Transfers) {
		t.Fatalf("misses %g, want %d", got, 2*r.Transfers)
	}
	// Energy: two frames at the model's per-frame energy, within float
	// tolerance, and positive.
	wantPJ := 2 * r.EnergyPerFrame * 1e12
	if got := m.Energy.TotalPicojoules(); got < wantPJ*0.999 || got > wantPJ*1.001 {
		t.Fatalf("energy %g pJ, want ≈%g", got, wantPJ)
	}
	if got := m.ModelFPS.Value(); got != r.FPS {
		t.Fatalf("fps gauge %g, want %g", got, r.FPS)
	}

	// The derived hit ratio is strictly between 0 and 1: the model does
	// far more port accesses than bursts.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	for _, name := range []string{
		"sslic_hw_scratchpad_hit_ratio 0.9",
		"sslic_hw_dram_bytes_total",
		"sslic_energy_component_picojoules_total{component=\"dram\"}",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %q:\n%s", name, out)
		}
	}
}

func TestObserveReportNilSafe(t *testing.T) {
	var m *Metrics
	m.ObserveReport(context.Background(), &Report{})
	reg := telemetry.NewRegistry()
	NewMetrics(reg).ObserveReport(context.Background(), nil)
}

// TestObserveFuncSim: a functionally simulated frame is observed
// through its report, and alternating Run and ObserveReport accumulates
// one frame's charges per frame.
func TestObserveFuncSim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = 64, 48, 12
	cfg.Passes = 2
	cfg.BufferBytesPerChannel = 256
	fs, err := NewFuncSim(cfg)
	if err != nil {
		t.Fatalf("NewFuncSim: %v", err)
	}
	im := funcTestImage(t, cfg.Width, cfg.Height)
	_, r, err := fs.Run(im)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	wantBytes := float64(r.TrafficBytes)
	m.ObserveReport(context.Background(), r)

	if got := m.DRAMBytes.Value(); got != wantBytes || got == 0 {
		t.Fatalf("dram bytes %g, want %g (nonzero)", got, wantBytes)
	}
	if m.ScratchHits.Value() == 0 || m.ScratchMisses.Value() == 0 {
		t.Fatalf("hits/misses = %g/%g, want both nonzero",
			m.ScratchHits.Value(), m.ScratchMisses.Value())
	}
	if m.Energy.TotalPicojoules() <= 0 {
		t.Fatalf("energy %g pJ, want > 0", m.Energy.TotalPicojoules())
	}

	// The next frame's report adds exactly one more frame's traffic.
	if _, r, err = fs.Run(im); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m.ObserveReport(context.Background(), r)
	if got := m.DRAMBytes.Value(); got != 2*wantBytes {
		t.Fatalf("second frame charged %g B in all, want %g", got, 2*wantBytes)
	}
}
