package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"sslic/internal/degrade"
	"sslic/internal/quality"
	"sslic/internal/slo"
	"sslic/internal/telemetry"
)

// getStreams fetches and decodes the /debug/streams document straight
// from the server's handler.
func getStreams(t *testing.T, s *Server) quality.Status {
	t.Helper()
	rec := httptest.NewRecorder()
	s.StreamsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/streams", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/streams status %d: %s", rec.Code, rec.Body.String())
	}
	var st quality.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/debug/streams body not a Status document: %v\n%s", err, rec.Body.String())
	}
	return st
}

// TestStreamsEndpoint: two delta frames on one stream must produce one
// introspection row with the delta hit/miss split, the churn trend, and
// the X-Quality-* response headers (churn only once a base exists).
func TestStreamsEndpoint(t *testing.T) {
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Recorder: fr})
	const query = "k=24&ratio=0.5&iters=4&datapath=fixed&format=slbl-delta&stream=cam1"

	first, _ := postFrame(t, ts, query, ppmBody(t, testFrame(64, 48)))
	if got := first.Header.Get("X-Quality-Churn"); got != "" {
		t.Fatalf("first frame has no delta base, yet X-Quality-Churn = %q", got)
	}
	for _, h := range []string{"X-Quality-Empty-Clusters", "X-Quality-Boundary-Density", "X-Quality-Residual"} {
		if first.Header.Get(h) == "" {
			t.Fatalf("first frame missing %s header", h)
		}
	}

	second, _ := postFrame(t, ts, query, ppmBody(t, testFrameShifted(64, 48, 2)))
	churnHdr := second.Header.Get("X-Quality-Churn")
	if churnHdr == "" {
		t.Fatal("second frame has a delta base but no X-Quality-Churn header")
	}
	churn, err := strconv.ParseFloat(churnHdr, 64)
	if err != nil || churn < 0 || churn > 1 {
		t.Fatalf("X-Quality-Churn = %q, want a ratio in [0, 1]", churnHdr)
	}

	st := getStreams(t, s)
	if len(st.Streams) != 1 {
		t.Fatalf("got %d stream rows, want 1: %+v", len(st.Streams), st.Streams)
	}
	row := st.Streams[0]
	if row.Stream != "cam1" {
		t.Fatalf("row stream = %q, want cam1", row.Stream)
	}
	if row.Frames != 2 {
		t.Fatalf("row frames = %d, want 2", row.Frames)
	}
	if row.Width != 64 || row.Height != 48 || row.K != 24 {
		t.Fatalf("row geometry = %dx%d k=%d, want 64x48 k=24", row.Width, row.Height, row.K)
	}
	if row.WireFormat != "slbl-delta" {
		t.Fatalf("row wire format = %q, want slbl-delta", row.WireFormat)
	}
	if row.DeltaHits != 1 || row.DeltaMisses != 1 {
		t.Fatalf("delta hits/misses = %d/%d, want 1/1", row.DeltaHits, row.DeltaMisses)
	}
	// Trend is oldest-first: the cold frame's unknown churn (-1), then
	// the measured ratio the header reported (to its 6-decimal
	// rounding).
	if len(row.Quality.ChurnTrend) != 2 || row.Quality.ChurnTrend[0] != -1 ||
		math.Abs(row.Quality.ChurnTrend[1]-churn) > 1e-6 {
		t.Fatalf("churn trend = %v, want [-1 ~%g]", row.Quality.ChurnTrend, churn)
	}
	if row.Quality.BoundaryDensity <= 0 || row.Quality.BoundaryDensity >= 1 {
		t.Fatalf("boundary density = %g, want in (0, 1)", row.Quality.BoundaryDensity)
	}
	if len(row.LastTraces) != 2 {
		t.Fatalf("last traces = %v, want 2 entries", row.LastTraces)
	}
	if st.Frames != 2 {
		t.Fatalf("frames_total = %g, want 2", st.Frames)
	}
}

// TestStreamsEviction: the introspection table is bounded by
// MaxStreams; global totals survive evictions.
func TestStreamsEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxStreams: 2})
	body := ppmBody(t, testFrame(64, 48))
	for _, stream := range []string{"s1", "s2", "s3"} {
		postFrame(t, ts, "k=24&ratio=0.5&iters=4&format=labels&stream="+stream, body)
	}
	st := getStreams(t, s)
	if len(st.Streams) != 2 {
		t.Fatalf("got %d stream rows, want 2 after eviction", len(st.Streams))
	}
	for _, row := range st.Streams {
		if row.Stream == "s1" {
			t.Fatal("least-recently-seen stream s1 survived eviction")
		}
	}
	if st.Frames != 3 {
		t.Fatalf("frames_total = %g, want 3 (eviction must not reset totals)", st.Frames)
	}
}

// TestStreamsConcurrent hammers segmentation and the introspection
// endpoint at once; run under -race this is the endpoint's data-race
// gate.
func TestStreamsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxStreams: 4})
	body := ppmBody(t, testFrame(48, 32))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := "s" + strconv.Itoa(g)
			for i := 0; i < 5; i++ {
				postFrame(t, ts, "k=16&ratio=0.5&iters=3&format=slbl-delta&stream="+stream, body)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			getStreams(t, s)
			s.SampleSignals()
		}
	}()
	wg.Wait()
	if st := getStreams(t, s); st.Frames != 20 {
		t.Fatalf("frames_total = %g, want 20", st.Frames)
	}
}

// TestQualityFloorEndToEnd is the chaos assertion: frames that fail the
// convergence proxy pin the degrade floor, overload then cannot walk
// the ladder past it, and both /debug/streams and /debug/slo reflect
// the state.
func TestQualityFloorEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2,
		DegradeInterval: -1, // drive the controller by hand
		// Any measurable residual ratio trips the proxy: every cold
		// frame below counts as collapsed.
		QualityMaxResidualDecay: 1e-12,
		SLOObjectives: []slo.Objective{
			{Kind: slo.KindQualityChurn, Max: 0.35, Budget: 0.05},
			{Kind: slo.KindQualityEmpty, Budget: 0.02},
		},
	})
	body := ppmBody(t, testFrame(64, 48))

	// Two controller windows of collapsed frames: FloorHold (default 2)
	// consecutive collapsed ticks pin the floor at the current level.
	// Stream-less requests stay cold, so the residual-decay check
	// applies to every one of them.
	for tick := 0; tick < 2; tick++ {
		postFrame(t, ts, "k=24&ratio=0.5&iters=4&format=labels", body)
		sig := s.SampleSignals()
		if !sig.QualityObserved || !sig.QualityCollapsed {
			t.Fatalf("tick %d: observed=%v collapsed=%v, want true/true",
				tick, sig.QualityObserved, sig.QualityCollapsed)
		}
		s.Degrade().Tick(sig)
	}
	floor, pinned := s.Degrade().Floor()
	if !pinned || floor != degrade.Full {
		t.Fatalf("floor = %v pinned=%v, want pinned at full", floor, pinned)
	}

	// A sustained latency/queue storm while quality stays collapsed:
	// the ladder must hold at the floor instead of shedding quality
	// that is already gone.
	for i := 0; i < 8; i++ {
		lvl := s.Degrade().Tick(degrade.Signals{
			QueueFill:        1,
			QualityCollapsed: true,
			QualityObserved:  true,
		})
		if lvl != degrade.Full {
			t.Fatalf("storm tick %d escalated to %v past the pinned floor", i, lvl)
		}
	}

	// Both debug surfaces report the pin.
	st := getStreams(t, s)
	if st.Floor == nil || !st.Floor.Pinned || st.Floor.Level != int(degrade.Full) {
		t.Fatalf("/debug/streams floor = %+v, want pinned at 0", st.Floor)
	}
	if st.CollapsedFrames < 2 {
		t.Fatalf("collapsed_frames_total = %g, want >= 2", st.CollapsedFrames)
	}

	s.SampleSignals() // close the storm's window
	postFrame(t, ts, "k=24&ratio=0.5&iters=4&format=labels", body)
	s.SampleSignals()
	slost := s.SLOEngine().Status()
	kinds := map[slo.Kind]bool{}
	for _, o := range slost.Objectives {
		kinds[o.Kind] = true
	}
	if !kinds[slo.KindQualityChurn] || !kinds[slo.KindQualityEmpty] {
		t.Fatalf("/debug/slo objectives missing quality kinds: %+v", slost.Objectives)
	}
	_ = ts
}
