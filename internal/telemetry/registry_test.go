package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("frames_total", "Frames.")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	// Re-registration returns the same series.
	if c2 := reg.Counter("frames_total", "Frames."); c2 != c {
		t.Fatalf("re-registration returned a new counter")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "").Add(-1)
}

func TestGaugeSetMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("queue_high_water", "")
	g.SetMax(3)
	g.SetMax(1)
	if got := g.Value(); got != 3 {
		t.Fatalf("SetMax lowered the gauge: %g", got)
	}
	g.Set(-2)
	g.Add(1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 7.0
	reg.GaugeFunc("derived", "", func() float64 { return v })
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := scrape(); !strings.Contains(out, "derived 7\n") {
		t.Fatalf("gauge func scrape:\n%s", out)
	}
	v = 8
	if out := scrape(); !strings.Contains(out, "derived 8\n") {
		t.Fatalf("gauge func not re-evaluated:\n%s", out)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 14 {
		t.Fatalf("sum = %g, want 14", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g, want 0.5/9", s.Min, s.Max)
	}
	if got := s.Mean(); got != 3.5 {
		t.Fatalf("mean = %g, want 3.5", got)
	}
	want := []uint64{1, 1, 1, 1} // one per bucket incl. +Inf overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewRegistry().Histogram("empty_seconds", "", nil)
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if len(s.Bounds) != len(DefBuckets) {
		t.Fatalf("nil buckets did not select DefBuckets")
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("win_seconds", "", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	prev := h.Snapshot()
	h.Observe(1.5)
	h.Observe(9)
	win := h.Snapshot().Sub(prev)
	if win.Count != 2 || win.Sum != 10.5 {
		t.Fatalf("window count/sum = %d/%g, want 2/10.5", win.Count, win.Sum)
	}
	want := []uint64{0, 1, 0, 1} // only the post-prev observations
	for i, w := range want {
		if win.Counts[i] != w {
			t.Fatalf("window bucket %d = %d, want %d", i, win.Counts[i], w)
		}
	}
	// A zero prev (first window) passes the full snapshot through.
	full := h.Snapshot().Sub(HistogramSnapshot{})
	if full.Count != 4 {
		t.Fatalf("zero-prev window count = %d, want 4", full.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "", []float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.Snapshot()
	// Median rank 10 lands exactly at the first bucket's upper bound.
	if got := s.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 = %g, want 10", got)
	}
	// p75 interpolates halfway into the second bucket: 10 + 10*(15-10)/10.
	if got := s.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %g, want 15", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.95); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	// Overflow-bucket quantiles cap at the observed max.
	h.Observe(100)
	if got := h.Snapshot().Quantile(1); got != 100 {
		t.Fatalf("p100 with overflow = %g, want max 100", got)
	}
	// A windowed snapshot (no Max) caps at the highest finite bound.
	win := h.Snapshot().Sub(HistogramSnapshot{Counts: make([]uint64, 4), Bounds: []float64{10, 20, 40}})
	if got := win.Quantile(1); got != 40 {
		t.Fatalf("windowed p100 = %g, want last bound 40", got)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewRegistry().Histogram("b_seconds", "", []float64{1})
	h.Observe(1) // le="1" is inclusive
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 0 {
		t.Fatalf("boundary observation landed in %v, want first bucket", s.Counts)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("stage_total", "", Label{"stage", "source"})
	b := reg.Counter("stage_total", "", Label{"stage", "sink"})
	if a == b {
		t.Fatalf("different labels returned the same series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatalf("label series share state")
	}
	// Label order does not matter for identity.
	x := reg.Counter("multi_total", "", Label{"a", "1"}, Label{"b", "2"})
	y := reg.Counter("multi_total", "", Label{"b", "2"}, Label{"a", "1"})
	if x != y {
		t.Fatalf("label order created a second series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("thing", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	reg.Gauge("thing", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"", "1abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
	// "le" is reserved for histogram buckets.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("label name le did not panic")
			}
		}()
		NewRegistry().Counter("ok_total", "", Label{"le", "x"})
	}()
}

func TestAtomicFloatExtremes(t *testing.T) {
	var f atomicFloat
	f.Store(math.Inf(1))
	f.storeMin(2)
	if f.Load() != 2 {
		t.Fatalf("storeMin from +Inf = %g", f.Load())
	}
	f.Store(math.Inf(-1))
	f.storeMax(3)
	if f.Load() != 3 {
		t.Fatalf("storeMax from -Inf = %g", f.Load())
	}
}
