package slo

import (
	"math"
	"testing"
	"time"

	"sslic/internal/telemetry"
)

// latencyWindow is a window of fast (5ms) and slow (200ms) requests.
func latencyWindow(fast, slow int) Window {
	h := telemetry.NewRegistry().Histogram("lat", "", []float64{0.01, 0.05, 0.1, 0.5})
	for i := 0; i < fast; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < slow; i++ {
		h.Observe(0.2)
	}
	return Window{Latency: h.Snapshot()}
}

func engineFor(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestLatencyBudgetBurn(t *testing.T) {
	e := engineFor(t, Config{
		Objectives: []Objective{{Kind: KindLatency, Threshold: 50 * time.Millisecond, Budget: 0.01}},
		FastWindow: 2, SlowWindow: 4,
	})

	// Window 1: 100 fast requests — no burn.
	e.Tick(latencyWindow(100, 0))
	st := e.Status().Objectives[0]
	if st.FastBurn != 0 {
		t.Fatalf("fast burn after good window = %g, want 0", st.FastBurn)
	}
	if st.BudgetRemaining != 1 {
		t.Fatalf("budget after good window = %g, want 1", st.BudgetRemaining)
	}

	// Window 2: 10 of 20 requests slow — 50% bad vs 1% budget = burn 50
	// over that window; fast window (2 ticks) dilutes with the 100 good.
	e.Tick(latencyWindow(10, 10))
	st = e.Status().Objectives[0]
	wantFast := (10.0 / 120.0) / 0.01
	if math.Abs(st.FastBurn-wantFast) > 1e-9 {
		t.Fatalf("fast burn = %g, want %g", st.FastBurn, wantFast)
	}
	if st.BudgetRemaining >= 1 {
		t.Fatalf("budget remaining = %g, want < 1 after bad window", st.BudgetRemaining)
	}
	wantBudget := 1 - 10.0/(120.0*0.01)
	if math.Abs(st.BudgetRemaining-wantBudget) > 1e-9 {
		t.Fatalf("budget remaining = %g, want %g", st.BudgetRemaining, wantBudget)
	}
}

func TestBurnAlertEdgeTriggered(t *testing.T) {
	var fired []string
	e := engineFor(t, Config{
		Objectives: []Objective{{Name: "p99", Kind: KindLatency, Threshold: 50 * time.Millisecond, Budget: 0.01}},
		FastWindow: 1, SlowWindow: 2,
		BurnThreshold: 10,
		OnBurn:        func(name string, fast, slow float64) { fired = append(fired, name) },
	})

	// Two consecutive all-bad windows: alert must fire exactly once.
	for w := 0; w < 2; w++ {
		e.Tick(latencyWindow(0, 10))
	}
	if len(fired) != 1 || fired[0] != "p99" {
		t.Fatalf("OnBurn fired %v, want exactly once for p99", fired)
	}
	if !e.Status().Objectives[0].Alerting {
		t.Fatalf("objective should be alerting")
	}

	// Recovery below half threshold clears the latch; a new storm
	// re-fires.
	for w := 0; w < 3; w++ {
		e.Tick(latencyWindow(100, 0))
	}
	if e.Status().Objectives[0].Alerting {
		t.Fatalf("objective should have cleared after good windows")
	}
	e.Tick(latencyWindow(0, 10))
	if len(fired) != 2 {
		t.Fatalf("OnBurn fired %d times after second storm, want 2", len(fired))
	}
}

func TestAvailabilityObjective(t *testing.T) {
	e := engineFor(t, Config{
		Objectives: []Objective{{Kind: KindAvailability, Budget: 0.1}},
		FastWindow: 1, SlowWindow: 1,
	})
	if burn := e.Tick(Window{Requests: 100, Failed: 20}); math.Abs(burn-2.0) > 1e-9 {
		t.Fatalf("availability burn = %g, want 2.0 (20%% bad vs 10%% budget)", burn)
	}
	// Counter reset must not poison the window.
	if burn := e.Tick(Window{Requests: -95, Failed: -20}); burn != 0 {
		t.Fatalf("burn after counter reset = %g, want 0", burn)
	}
}

func TestEnergyObjective(t *testing.T) {
	e := engineFor(t, Config{
		Objectives: []Objective{{Kind: KindEnergy, TargetPJ: 1000, Budget: 0.5}},
		FastWindow: 1, SlowWindow: 1,
	})
	// 500 pJ/frame, under target
	if burn := e.Tick(Window{Frames: 10, PJ: 5000}); burn != 0 {
		t.Fatalf("burn under energy target = %g, want 0", burn)
	}
	// 10 frames at 2000 pJ/frame, over
	if burn := e.Tick(Window{Frames: 10, PJ: 20000}); math.Abs(burn-2.0) > 1e-9 {
		t.Fatalf("burn over energy target = %g, want 2.0 (100%% bad / 50%% budget)", burn)
	}
	st := e.Status().Objectives[0]
	if st.CumBad != 10 || st.CumTotal != 20 {
		t.Fatalf("cum bad/total = %g/%g, want 10/20", st.CumBad, st.CumTotal)
	}
}

func TestBadAboveInterpolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("x", "", []float64{0.1, 0.2})
	for i := 0; i < 10; i++ {
		h.Observe(0.15) // all in the (0.1, 0.2] bucket
	}
	win := h.Snapshot()
	// Threshold at 0.15 bisects the bucket: half the mass is bad.
	if bad := badAbove(win, 0.15); math.Abs(bad-5) > 1e-9 {
		t.Fatalf("badAbove mid-bucket = %g, want 5", bad)
	}
	// Threshold below all buckets: everything is bad.
	if bad := badAbove(win, 0.05); math.Abs(bad-10) > 1e-9 {
		t.Fatalf("badAbove below = %g, want 10", bad)
	}
	// Threshold above the highest bound: only overflow would count.
	if bad := badAbove(win, 0.5); bad != 0 {
		t.Fatalf("badAbove above = %g, want 0", bad)
	}
	h.Observe(5) // overflow bucket
	if bad := badAbove(h.Snapshot(), 0.5); bad != 1 {
		t.Fatalf("badAbove overflow = %g, want 1", bad)
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("latency,threshold=50ms,budget=0.01; availability,budget=0.001,name=avail ;energy,target_pj=9e9,budget=0.05")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if objs[0].Kind != KindLatency || objs[0].Threshold != 50*time.Millisecond || objs[0].Name != "latency" {
		t.Fatalf("latency objective parsed wrong: %+v", objs[0])
	}
	if objs[1].Name != "avail" || objs[1].Budget != 0.001 {
		t.Fatalf("availability objective parsed wrong: %+v", objs[1])
	}
	if objs[2].TargetPJ != 9e9 {
		t.Fatalf("energy objective parsed wrong: %+v", objs[2])
	}

	for _, bad := range []string{
		"latency,budget=0.01",                 // missing threshold
		"latency,threshold=50ms,budget=2",     // budget out of range
		"wibble,budget=0.01",                  // unknown kind
		"latency,threshold=50ms,frobnicate=1", // unknown option
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted, want error", bad)
		}
	}
}

func TestRegistrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := engineFor(t, Config{
		Objectives: []Objective{{Name: "p99", Kind: KindLatency, Threshold: 50 * time.Millisecond, Budget: 0.01}},
		FastWindow: 1, SlowWindow: 1,
		Registry: reg,
	})
	e.Tick(latencyWindow(0, 10))
	lbl := telemetry.Label{Name: "objective", Value: "p99"}
	if v := reg.Gauge("sslic_slo_error_budget_remaining", "", lbl).Value(); v >= 1 {
		t.Fatalf("budget gauge = %g, want < 1", v)
	}
	if v := reg.Counter("sslic_slo_bad_total", "", lbl).Value(); v != 10 {
		t.Fatalf("bad counter = %g, want 10", v)
	}
	fast := reg.Gauge("sslic_slo_burn_rate", "", lbl, telemetry.Label{Name: "window", Value: "fast"})
	if fast.Value() != 100 {
		t.Fatalf("fast burn gauge = %g, want 100", fast.Value())
	}
}
