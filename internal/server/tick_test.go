package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sslic/internal/degrade"
	"sslic/internal/imgio"
	"sslic/internal/slo"
	"sslic/internal/sslic"
)

// tickObjectives is one objective of each kind.
var tickObjectives = []slo.Objective{
	// Every request is slower than 1ns. One that takes under 5ms lands
	// in the first latency bucket, which the engine apportions
	// linearly, so it counts as 1-2e-7 of a bad request.
	{Name: "latency", Kind: slo.KindLatency, Threshold: time.Nanosecond, Budget: 0.01},
	{Name: "availability", Kind: slo.KindAvailability, Budget: 0.1},
	// A cold frame here is charged about 2.08e6 pJ and a warm one
	// 1.57e6, so a window's mean lands on either side of the target
	// by its share of cold frames.
	{Name: "energy", Kind: slo.KindEnergy, TargetPJ: 1.8e6, Budget: 0.5},
	// 0.35 is one of the churn histogram's bucket bounds, so a frame
	// counts as bad exactly when its churn exceeds it.
	{Name: "churn", Kind: slo.KindQualityChurn, Max: 0.35, Budget: 0.05},
	{Name: "empty", Kind: slo.KindQualityEmpty, Budget: 0.2},
}

// tickModel is the expected state of one objective: its budget and
// burn arithmetic over the windows the engine should have seen.
type tickModel struct {
	obj      slo.Objective
	wins     [][2]float64 // (total, bad) per window after the seed
	alerting bool
}

// window derives the objective's (total, bad) from the responses
// answered in one window.
func (m *tickModel) window(t *testing.T, resps []*httptest.ResponseRecorder) (total, bad float64) {
	t.Helper()
	num := func(r *httptest.ResponseRecorder, name string) float64 {
		v, err := strconv.ParseFloat(r.Header().Get(name), 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	var frames, pj float64
	for _, r := range resps {
		served := r.Code == http.StatusOK
		switch m.obj.Kind {
		case slo.KindLatency:
			total, bad = total+1, bad+1
		case slo.KindAvailability:
			total++
			if r.Code >= 500 || r.Code == http.StatusTooManyRequests {
				bad++
			}
		case slo.KindEnergy:
			if served {
				frames++
				pj += num(r, "X-Cost-Est-Pj")
			}
		case slo.KindQualityChurn:
			if r.Header().Get("X-Quality-Churn") != "" {
				total++
				if num(r, "X-Quality-Churn") > m.obj.Max {
					bad++
				}
			}
		case slo.KindQualityEmpty:
			if served {
				total++
				if num(r, "X-Quality-Empty-Clusters") > 0 {
					bad++
				}
			}
		}
	}
	if m.obj.Kind == slo.KindEnergy && frames > 0 {
		// The headers round each frame to whole picojoules; the target
		// sits far from every window's mean.
		total = frames
		if pj/frames > m.obj.TargetPJ {
			bad = frames
		}
	}
	return total, bad
}

func (m *tickModel) burn(n int) float64 {
	var total, bad float64
	for _, w := range m.wins[max(0, len(m.wins)-n):] {
		total, bad = total+w[0], bad+w[1]
	}
	if total == 0 {
		return 0
	}
	return bad / total / m.obj.Budget
}

// near compares with a relative tolerance that covers the latency
// objective's apportioned first bucket.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-5*math.Max(1, math.Abs(want))
}

// TestControlTickContract pins what one control tick observes: the
// degrade signals SampleSignals returns and every objective's
// /debug/slo status after each window, through a seeding window, idle
// windows, a saturation 429, a deadline 504 and windows whose
// collapsed-frame share is above, below and exactly at one half. Cold
// frames collapse under the residual-decay floor; warm stream frames
// are exempt.
func TestControlTickContract(t *testing.T) {
	// A stored gate parks every frame that reaches the backend.
	var gate atomic.Pointer[blockGate]
	backend := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		if g := gate.Load(); g != nil {
			return g.segment(ctx, im, p)
		}
		return sslic.SegmentContext(ctx, im, p)
	}
	const fast, slow, threshold = 2, 4, 5.0
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Segment: backend,
		DegradeInterval:         -1,
		QualityMaxResidualDecay: 1e-12,
		SLOObjectives:           tickObjectives,
		SLOFastWindow:           fast, SLOSlowWindow: slow,
		SLOBurnThreshold:   threshold,
		ProfileCPUDuration: time.Millisecond,
	})
	h := s.Handler()
	frame := ppmBody(t, testFrame(64, 48))
	shifted := ppmBody(t, testFrameShifted(64, 48, 5))
	const plain = "k=24&ratio=0.5&iters=4&format=labels" // always cold
	const cam = "k=24&ratio=0.5&iters=4&format=slbl-delta&stream=cam"
	send := func(query string, body []byte) *httptest.ResponseRecorder {
		return serveSegment(h, context.Background(), query, "", "", body)
	}

	// The saturation window parks two frames; they are answered in the
	// window after it.
	var parked []chan *httptest.ResponseRecorder
	park := func(query, what string, cond func() bool) {
		done := make(chan *httptest.ResponseRecorder, 1)
		parked = append(parked, done)
		go func() { done <- send(query, frame) }()
		waitUntil(t, what, cond)
	}

	rows := []struct {
		name  string
		drive func() []*httptest.ResponseRecorder
		codes []int
		want  degrade.Signals // BurnRate comes from the models
	}{
		{"seed", func() []*httptest.ResponseRecorder {
			return []*httptest.ResponseRecorder{send(plain, frame)}
		}, []int{200}, degrade.Signals{QualityObserved: true, QualityCollapsed: true}},
		{"idle", func() []*httptest.ResponseRecorder { return nil }, nil, degrade.Signals{}},
		{"saturated", func() []*httptest.ResponseRecorder {
			g := newBlockGate()
			gate.Store(g)
			park(cam, "worker occupancy", func() bool { return g.entered.Load() == 1 })
			park(plain, "queue occupancy", func() bool { return s.pool.Queued() == 1 })
			return []*httptest.ResponseRecorder{send(plain, frame)}
		}, []int{429}, degrade.Signals{QueueFill: 1, Rejected: 1}},
		{"collapsed above half", func() []*httptest.ResponseRecorder {
			g := gate.Swap(nil)
			close(g.release)
			var out []*httptest.ResponseRecorder
			for _, p := range parked {
				out = append(out, <-p)
			}
			return append(out, send(cam, frame)) // cold, cold, warm
		}, []int{200, 200, 200}, degrade.Signals{QualityObserved: true, QualityCollapsed: true}},
		{"collapsed below half", func() []*httptest.ResponseRecorder {
			return []*httptest.ResponseRecorder{send(plain, frame), send(cam, frame), send(cam, shifted)}
		}, []int{200, 200, 200}, degrade.Signals{QualityObserved: true}},
		{"collapsed at half", func() []*httptest.ResponseRecorder {
			return []*httptest.ResponseRecorder{send(plain, frame), send(cam, frame)}
		}, []int{200, 200}, degrade.Signals{QualityObserved: true}},
		{"deadline", func() []*httptest.ResponseRecorder {
			g := newBlockGate()
			gate.Store(g)
			defer func() { close(gate.Swap(nil).release) }()
			return []*httptest.ResponseRecorder{send(plain+"&timeout_ms=50", frame)}
		}, []int{504}, degrade.Signals{DeadlineMisses: 1}},
		{"idle after deadline", func() []*httptest.ResponseRecorder { return nil }, nil, degrade.Signals{}},
		{"idle, alerts clear", func() []*httptest.ResponseRecorder { return nil }, nil, degrade.Signals{}},
	}

	models := make([]*tickModel, len(tickObjectives))
	for i, o := range tickObjectives {
		models[i] = &tickModel{obj: o}
	}
	for i, row := range rows {
		resps := row.drive()
		if len(resps) != len(row.codes) {
			t.Fatalf("%s: %d responses, want %d", row.name, len(resps), len(row.codes))
		}
		for j, r := range resps {
			if r.Code != row.codes[j] {
				t.Fatalf("%s: response %d status %d (%s), want %d", row.name, j, r.Code, r.Body, row.codes[j])
			}
		}
		sig := s.SampleSignals()

		want := row.want
		for _, m := range models {
			if i == 0 {
				continue // the first window only seeds the engine
			}
			total, bad := m.window(t, resps)
			m.wins = append(m.wins, [2]float64{total, bad})
			f := m.burn(fast)
			want.BurnRate = math.Max(want.BurnRate, f)
			switch {
			case !m.alerting && f >= threshold:
				m.alerting = true
			case m.alerting && f < threshold/2:
				m.alerting = false
			}
		}
		if sig.QueueFill != want.QueueFill || sig.DeadlineMisses != want.DeadlineMisses ||
			sig.Rejected != want.Rejected || !near(sig.BurnRate, want.BurnRate) ||
			sig.QualityObserved != want.QualityObserved || sig.QualityCollapsed != want.QualityCollapsed {
			t.Fatalf("%s: signals {fill %g, misses %d, rejected %d, burn %g, observed %v, collapsed %v}, "+
				"want {fill %g, misses %d, rejected %d, burn %g, observed %v, collapsed %v}", row.name,
				sig.QueueFill, sig.DeadlineMisses, sig.Rejected, sig.BurnRate, sig.QualityObserved, sig.QualityCollapsed,
				want.QueueFill, want.DeadlineMisses, want.Rejected, want.BurnRate, want.QualityObserved, want.QualityCollapsed)
		}

		rec := httptest.NewRecorder()
		slo.Handler(s.SLOEngine()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
		var doc slo.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: /debug/slo: %v", row.name, err)
		}
		got := map[string]slo.ObjectiveStatus{}
		for _, o := range doc.Objectives {
			got[o.Name] = o
		}
		for _, m := range models {
			var cumTotal, cumBad float64
			for _, w := range m.wins {
				cumTotal, cumBad = cumTotal+w[0], cumBad+w[1]
			}
			budget := 1.0
			if cumTotal > 0 {
				budget = 1 - cumBad/(cumTotal*m.obj.Budget)
			}
			o := got[m.obj.Name]
			if !near(o.CumTotal, cumTotal) || !near(o.CumBad, cumBad) || !near(o.BudgetRemaining, budget) ||
				!near(o.FastBurn, m.burn(fast)) || !near(o.SlowBurn, m.burn(slow)) || o.Alerting != m.alerting {
				t.Fatalf("%s: objective %s = {total %g, bad %g, budget %g, fast %g, slow %g, alerting %v}, "+
					"want {total %g, bad %g, budget %g, fast %g, slow %g, alerting %v}", row.name, m.obj.Name,
					o.CumTotal, o.CumBad, o.BudgetRemaining, o.FastBurn, o.SlowBurn, o.Alerting,
					cumTotal, cumBad, budget, m.burn(fast), m.burn(slow), m.alerting)
			}
		}
	}
}
