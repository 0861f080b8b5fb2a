package quality

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/telemetry"
)

func labelMap(w, h int, labels ...int32) *imgio.LabelMap {
	lm := &imgio.LabelMap{W: w, H: h, Labels: make([]int32, w*h)}
	copy(lm.Labels, labels)
	return lm
}

func TestLabelChurn(t *testing.T) {
	a := labelMap(2, 2, 0, 0, 1, 1)
	b := labelMap(2, 2, 0, 0, 1, 1)
	if changed, ok := LabelChurn(a, b); !ok || changed != 0 {
		t.Fatalf("identical maps: changed=%d ok=%v, want 0 true", changed, ok)
	}
	b.Labels[3] = 2
	if changed, ok := LabelChurn(a, b); !ok || changed != 1 {
		t.Fatalf("one differing pixel: changed=%d ok=%v, want 1 true", changed, ok)
	}
	if _, ok := LabelChurn(a, nil); ok {
		t.Fatal("nil prev must report ok=false")
	}
	if _, ok := LabelChurn(a, labelMap(2, 3)); ok {
		t.Fatal("geometry mismatch must report ok=false")
	}
	// Maps that end inside a mask word and span the scan's chunks of
	// scanCols pixels: the count equals a pixel-by-pixel compare.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 63, 64, 65, 200, scanCols - 1, scanCols, scanCols + 1, 3*scanCols + 70} {
		a, b := labelMap(n, 1), labelMap(n, 1)
		want := 0
		for i := range a.Labels {
			a.Labels[i] = int32(i / 9)
			b.Labels[i] = a.Labels[i]
			if rng.Intn(5) == 0 {
				b.Labels[i]++
				want++
			}
		}
		if changed, ok := LabelChurn(a, b); !ok || changed != want {
			t.Fatalf("%d pixels: changed=%d ok=%v, want %d true", n, changed, ok, want)
		}
	}
}

func sampleFor(stream string, churn float64) Sample {
	return Sample{
		Stream: stream, TraceID: "t-" + stream,
		W: 8, H: 8, K: 4, Level: 1, Warm: true,
		WireFormat: "slbl-delta", DeltaBase: churn >= 0,
		Churn: churn, EmptyClusters: 1, Clusters: 4,
		ClusterSizeCV: 0.25, BoundaryDensity: 0.5,
		Residual: 0.01, ResidualDecay: 0.1,
		Converged: true, Passes: 6,
	}
}

func TestTrackerSnapshot(t *testing.T) {
	tr := NewTracker(Config{
		FloorFunc: func() (int, bool) { return 2, true },
	})
	tr.Observe(sampleFor("b", 0.125))
	tr.Observe(sampleFor("a", -1))
	tr.Observe(sampleFor("a", 0.5))

	st := tr.Snapshot()
	if len(st.Streams) != 2 {
		t.Fatalf("got %d stream rows, want 2", len(st.Streams))
	}
	if st.Streams[0].Stream != "a" || st.Streams[1].Stream != "b" {
		t.Fatalf("rows not sorted by stream: %q, %q", st.Streams[0].Stream, st.Streams[1].Stream)
	}
	a := st.Streams[0]
	if a.Frames != 2 || a.WarmFrames != 2 {
		t.Fatalf("stream a frames=%d warm=%d, want 2/2", a.Frames, a.WarmFrames)
	}
	if a.DeltaHits != 1 || a.DeltaMisses != 1 || a.DeltaRatio != 0.5 {
		t.Fatalf("stream a delta hits=%d misses=%d ratio=%g, want 1/1/0.5",
			a.DeltaHits, a.DeltaMisses, a.DeltaRatio)
	}
	// Churn trend is oldest-first: unknown (-1) then 0.5.
	if len(a.Quality.ChurnTrend) != 2 || a.Quality.ChurnTrend[0] != -1 || a.Quality.ChurnTrend[1] != 0.5 {
		t.Fatalf("churn trend = %v, want [-1 0.5]", a.Quality.ChurnTrend)
	}
	if len(a.LevelHistory) != 2 {
		t.Fatalf("level history = %v, want 2 entries", a.LevelHistory)
	}
	if len(a.LastTraces) != 2 || a.LastTraces[0] != "t-a" {
		t.Fatalf("traces = %v", a.LastTraces)
	}
	if a.Quality.Churn != 0.5 || a.Quality.EmptyClusters != 1 || a.Quality.Passes != 6 {
		t.Fatalf("last-sample block wrong: %+v", a.Quality)
	}
	if st.Floor == nil || !st.Floor.Pinned || st.Floor.Level != 2 {
		t.Fatalf("floor = %+v, want pinned at 2", st.Floor)
	}
	if st.Frames != 3 {
		t.Fatalf("frames total = %g, want 3", st.Frames)
	}

	// The handler serves the same document as JSON.
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/streams", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("handler body not JSON: %v", err)
	}
	for _, key := range []string{"streams", "floor", "frames_total", "empty_cluster_frames_total", "collapsed_frames_total"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("handler JSON missing %q: %s", key, rec.Body.String())
		}
	}
}

func TestTrackerTotals(t *testing.T) {
	tr := NewTracker(Config{MaxEmptyFrac: 0.1})
	if tot := tr.Totals(); tot.Frames != 0 || tot.Collapsed != 0 || tot.Churn.Count != 0 {
		t.Fatalf("idle totals = %+v, want zero", tot)
	}
	// sampleFor has 1 empty of 4 clusters = 0.25 > 0.1: bad.
	tr.Observe(sampleFor("s", 0.1))
	tr.Observe(sampleFor("s", -1))
	good := sampleFor("s", 0.1)
	good.EmptyClusters = 0
	tr.Observe(good)
	tot := tr.Totals()
	if tot.Frames != 3 || tot.EmptyFrames != 2 || tot.Collapsed != 2 || tot.Churn.Count != 2 {
		t.Fatalf("totals = {frames %g, empty %g, collapsed %g, churn %d}, want {3, 2, 2, 2}",
			tot.Frames, tot.EmptyFrames, tot.Collapsed, tot.Churn.Count)
	}
}

func TestTrackerFloorChecks(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		mut  func(*Sample)
		bad  bool
	}{
		{"churn over", Config{MaxChurn: 0.2}, func(s *Sample) { s.Churn = 0.3 }, true},
		{"churn under", Config{MaxChurn: 0.2}, func(s *Sample) { s.Churn = 0.1 }, false},
		{"churn unknown exempt", Config{MaxChurn: 0.2}, func(s *Sample) { s.Churn = -1 }, false},
		{"empty over", Config{MaxEmptyFrac: 0.1}, func(s *Sample) { s.EmptyClusters = 1 }, true},
		{"empty under", Config{MaxEmptyFrac: 0.5}, func(s *Sample) { s.EmptyClusters = 1 }, false},
		{"decay over", Config{MaxResidualDecay: 0.5}, func(s *Sample) {
			s.Warm = false
			s.ResidualDecay = 0.9
		}, true},
		{"decay warm exempt", Config{MaxResidualDecay: 0.5}, func(s *Sample) {
			s.Warm = true
			s.ResidualDecay = 0.9
		}, false},
		{"all disabled", Config{}, func(s *Sample) { s.Churn = 0.99; s.EmptyClusters = 4 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker(tc.cfg)
			s := sampleFor("s", 0.0)
			s.EmptyClusters = 0
			tc.mut(&s)
			tr.Observe(s)
			tot := tr.Totals()
			if tot.Frames != 1 {
				t.Fatal("frame not observed")
			}
			if collapsed := tot.Collapsed == 1; collapsed != tc.bad {
				t.Fatalf("collapsed = %v, want %v", collapsed, tc.bad)
			}
		})
	}
}

// TestObserveSteadyStateAllocs gates the tentpole's zero-alloc claim:
// once a stream's state and gauges exist, folding a frame in allocates
// nothing.
func TestObserveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	tr := NewTracker(Config{MaxChurn: 0.5, Registry: telemetry.NewRegistry()})
	s := sampleFor("steady", 0.1)
	tr.Observe(s) // mint the stream state and gauges
	allocs := testing.AllocsPerRun(100, func() { tr.Observe(s) })
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f objects/op, want 0", allocs)
	}
}
