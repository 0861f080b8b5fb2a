// Package slo evaluates declarative service-level objectives over the
// observation windows a control loop closes (the change in each
// cumulative histogram and counter since the previous tick), turning
// them into error budgets and multi-window burn rates.
//
// The paper argues in budgets — cycles, bytes and picojoules per frame
// (Table 4) — and an SLO is exactly that framing applied to the running
// service: "99% of segmentations under 50ms", "99.9% of requests
// served", "mean energy under N pJ/frame". The engine tracks, per
// objective, how much of the allowed badness (the error budget) has
// been consumed and how fast it is currently being consumed (the burn
// rate), over a fast window (paging signal) and a slow window (trend).
// A burn-rate threshold crossing is edge-triggered into a callback —
// the server points it at the profile capturer so a burning objective
// automatically yields pprof evidence — and the maximum fast burn is
// exported as an input signal to the degrade controller.
package slo

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sslic/internal/telemetry"
)

// Kind names what an objective measures.
type Kind string

const (
	// KindLatency counts requests slower than Threshold as bad, from
	// the request-latency histogram's window deltas.
	KindLatency Kind = "latency"
	// KindAvailability counts failed requests (5xx and shed 429s) as
	// bad, from response-counter deltas.
	KindAvailability Kind = "availability"
	// KindEnergy counts a window's frames as bad when the window's mean
	// estimated energy per frame exceeds TargetPJ.
	KindEnergy Kind = "energy"
	// KindQualityChurn counts frames whose inter-frame label churn ratio
	// exceeds Max as bad, from the quality tracker's churn histogram.
	KindQualityChurn Kind = "quality.churn"
	// KindQualityEmpty counts frames with at least one empty cluster as
	// bad — an availability objective over segmentation usefulness.
	KindQualityEmpty Kind = "quality.empty"
)

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in exports; defaults to the kind.
	Name string `json:"name"`
	// Kind selects the measurement.
	Kind Kind `json:"kind"`
	// Threshold is the latency cut for KindLatency.
	Threshold time.Duration `json:"threshold,omitempty"`
	// TargetPJ is the per-frame energy budget for KindEnergy.
	TargetPJ float64 `json:"target_pj,omitempty"`
	// Max is the churn-ratio cut for KindQualityChurn.
	Max float64 `json:"max,omitempty"`
	// Budget is the allowed bad fraction (e.g. 0.01 → 99% objective).
	Budget float64 `json:"budget"`
}

func (o Objective) validate() error {
	if o.Budget <= 0 || o.Budget >= 1 {
		return fmt.Errorf("slo %q: budget must be in (0, 1), got %g", o.Name, o.Budget)
	}
	switch o.Kind {
	case KindLatency:
		if o.Threshold <= 0 {
			return fmt.Errorf("slo %q: latency objective needs threshold > 0", o.Name)
		}
	case KindAvailability:
	case KindEnergy:
		if o.TargetPJ <= 0 {
			return fmt.Errorf("slo %q: energy objective needs target_pj > 0", o.Name)
		}
	case KindQualityChurn:
		if o.Max <= 0 || o.Max >= 1 {
			return fmt.Errorf("slo %q: quality.churn objective needs max in (0, 1)", o.Name)
		}
	case KindQualityEmpty:
	default:
		return fmt.Errorf("slo %q: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// Window is one control tick's observations: how far each cumulative
// series an objective kind reads moved since the previous tick. A
// counter pair that went negative (a reset) reads as an empty window.
type Window struct {
	// Latency is the request-latency histogram's window, in seconds.
	Latency telemetry.HistogramSnapshot
	// Requests counts responses; Failed those that failed.
	Requests, Failed float64
	// Frames counts frames with a closed cost ledger; PJ their
	// estimated energy in picojoules.
	Frames, PJ float64
	// Churn is the inter-frame label-churn histogram's window (ratio
	// in [0, 1]).
	Churn telemetry.HistogramSnapshot
	// QualityFrames counts quality observations; EmptyFrames those with
	// at least one empty cluster.
	QualityFrames, EmptyFrames float64
}

// Config tunes an Engine.
type Config struct {
	Objectives []Objective
	// FastWindow and SlowWindow are burn-rate window lengths in ticks
	// (the caller owns the tick cadence). <= 0 selects 20 and 240 —
	// 5s and 60s at the server's 250ms degrade tick.
	FastWindow, SlowWindow int
	// BurnThreshold is the fast-burn level that edge-triggers OnBurn;
	// <= 0 disables alerting. Burn 1.0 = consuming budget exactly at
	// the sustainable rate; a paging threshold is typically 8–14.
	BurnThreshold float64
	// OnBurn fires once per threshold crossing (cleared when fast burn
	// falls below half the threshold).
	OnBurn func(objective string, fastBurn, slowBurn float64)
	// Registry receives the SLO series; nil skips registration.
	Registry *telemetry.Registry
	Logger   *slog.Logger
}

// outcome is one tick's (total, bad) observation.
type outcome struct{ total, bad float64 }

// objState is an objective's accumulated evaluation state.
type objState struct {
	obj Objective

	cumTotal float64
	cumBad   float64

	ring []outcome // last SlowWindow ticks, ring[head] oldest
	head int
	fill int

	alerting bool

	budgetGauge *telemetry.Gauge
	fastGauge   *telemetry.Gauge
	slowGauge   *telemetry.Gauge
	badCtr      *telemetry.Counter
	alertCtr    *telemetry.Counter
}

// Engine evaluates objectives. Tick it from the loop that closes
// observation windows (the server's control tick).
type Engine struct {
	cfg Config
	log *slog.Logger

	mu   sync.Mutex
	objs []*objState
}

// New builds an engine; invalid objectives are rejected.
func New(cfg Config) (*Engine, error) {
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 20
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 240
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	e := &Engine{cfg: cfg, log: log}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			o.Name = string(o.Kind)
		}
		if err := o.validate(); err != nil {
			return nil, err
		}
		st := &objState{obj: o, ring: make([]outcome, cfg.SlowWindow)}
		if reg := cfg.Registry; reg != nil {
			lbl := telemetry.Label{Name: "objective", Value: o.Name}
			st.budgetGauge = reg.Gauge("sslic_slo_error_budget_remaining",
				"Fraction of the objective's error budget left (1 = untouched, <=0 = exhausted).", lbl)
			st.budgetGauge.Set(1)
			st.fastGauge = reg.Gauge("sslic_slo_burn_rate",
				"Error-budget burn rate (1 = sustainable consumption).",
				lbl, telemetry.Label{Name: "window", Value: "fast"})
			st.slowGauge = reg.Gauge("sslic_slo_burn_rate",
				"Error-budget burn rate (1 = sustainable consumption).",
				lbl, telemetry.Label{Name: "window", Value: "slow"})
			st.badCtr = reg.Counter("sslic_slo_bad_total",
				"Objective-violating events observed.", lbl)
			st.alertCtr = reg.Counter("sslic_slo_burn_alerts_total",
				"Burn-rate threshold crossings.", lbl)
		}
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// Objectives returns the configured objectives.
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	out := make([]Objective, 0, len(e.objs))
	for _, st := range e.objs {
		out = append(out, st.obj)
	}
	return out
}

// Tick folds one observation window into every objective: budgets and
// burn rates, and burn alerts on rising edges. Returns the maximum fast
// burn across objectives — the degrade controller's input signal.
func (e *Engine) Tick(w Window) float64 {
	if e == nil {
		return 0
	}
	type alert struct {
		name       string
		fast, slow float64
	}
	var alerts []alert
	e.mu.Lock()
	var maxFast float64
	for _, st := range e.objs {
		total, bad := st.obj.observe(w)
		st.cumTotal += total
		st.cumBad += bad
		if st.badCtr != nil && bad > 0 {
			st.badCtr.Add(bad)
		}
		st.ring[st.head] = outcome{total: total, bad: bad}
		st.head = (st.head + 1) % len(st.ring)
		if st.fill < len(st.ring) {
			st.fill++
		}
		fast := st.burn(e.cfg.FastWindow)
		slow := st.burn(e.cfg.SlowWindow)
		if st.fastGauge != nil {
			st.fastGauge.Set(fast)
			st.slowGauge.Set(slow)
			st.budgetGauge.Set(st.budgetRemaining())
		}
		if fast > maxFast {
			maxFast = fast
		}
		if th := e.cfg.BurnThreshold; th > 0 {
			switch {
			case !st.alerting && fast >= th:
				st.alerting = true
				if st.alertCtr != nil {
					st.alertCtr.Inc()
				}
				alerts = append(alerts, alert{name: st.obj.Name, fast: fast, slow: slow})
			case st.alerting && fast < th/2:
				st.alerting = false
			}
		}
	}
	e.mu.Unlock()
	// Fire callbacks outside the lock: OnBurn may call back into
	// anything (profiler, logger) and must not deadlock Status readers.
	for _, a := range alerts {
		e.log.Warn("slo burn threshold crossed",
			"objective", a.name, "fast_burn", a.fast, "slow_burn", a.slow,
			"threshold", e.cfg.BurnThreshold)
		if e.cfg.OnBurn != nil {
			e.cfg.OnBurn(a.name, a.fast, a.slow)
		}
	}
	return maxFast
}

// observe reads the objective's (total, bad) from one window.
func (o Objective) observe(w Window) (total, bad float64) {
	switch o.Kind {
	case KindLatency:
		return float64(w.Latency.Count), badAbove(w.Latency, o.Threshold.Seconds())
	case KindAvailability:
		return counted(w.Requests, w.Failed)
	case KindEnergy:
		if w.Frames <= 0 || w.PJ < 0 {
			return 0, 0
		}
		if w.PJ/w.Frames > o.TargetPJ {
			return w.Frames, w.Frames // every frame in an over-budget window is bad
		}
		return w.Frames, 0
	case KindQualityChurn:
		return float64(w.Churn.Count), badAbove(w.Churn, o.Max)
	case KindQualityEmpty:
		return counted(w.QualityFrames, w.EmptyFrames)
	}
	return 0, 0
}

// counted is a counter pair's (total, bad); a negative window (a
// counter reset) reads as empty.
func counted(total, bad float64) (float64, float64) {
	if total < 0 || bad < 0 {
		return 0, 0
	}
	return total, bad
}

// badAbove counts the window's observations above the threshold
// (seconds), linearly apportioning the bucket the threshold falls in —
// the mirror image of Quantile's interpolation.
func badAbove(win telemetry.HistogramSnapshot, threshold float64) float64 {
	if win.Count == 0 {
		return 0
	}
	var bad float64
	lower := 0.0
	for i, b := range win.Bounds {
		c := float64(win.Counts[i])
		switch {
		case threshold <= lower:
			bad += c
		case threshold < b:
			bad += c * (b - threshold) / (b - lower)
		}
		lower = b
	}
	// Overflow bucket: only known to exceed the highest finite bound,
	// so count it as bad pessimistically — an SLO should overcount,
	// not undercount, unclassifiable observations.
	bad += float64(win.Counts[len(win.Counts)-1])
	return bad
}

// burn computes the budget-normalized bad fraction over the last n
// ticks: 1.0 means the budget is being consumed exactly at the
// sustainable rate, k means k× too fast.
func (st *objState) burn(n int) float64 {
	if n > st.fill {
		n = st.fill
	}
	if n == 0 {
		return 0
	}
	var total, bad float64
	idx := st.head // head is one past the newest entry
	for i := 0; i < n; i++ {
		idx--
		if idx < 0 {
			idx += len(st.ring)
		}
		total += st.ring[idx].total
		bad += st.ring[idx].bad
	}
	if total == 0 {
		return 0
	}
	return (bad / total) / st.obj.Budget
}

// budgetRemaining is the cumulative error budget left in [−∞, 1]:
// 1 − cumBad / (cumTotal × Budget). Negative means overspent.
func (st *objState) budgetRemaining() float64 {
	if st.cumTotal == 0 {
		return 1
	}
	return 1 - st.cumBad/(st.cumTotal*st.obj.Budget)
}

// ObjectiveStatus is one objective's exported evaluation state.
type ObjectiveStatus struct {
	Name            string  `json:"name"`
	Kind            Kind    `json:"kind"`
	Target          string  `json:"target"`
	Budget          float64 `json:"budget"`
	CumTotal        float64 `json:"cum_total"`
	CumBad          float64 `json:"cum_bad"`
	BudgetRemaining float64 `json:"budget_remaining"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	Alerting        bool    `json:"alerting"`
}

// Status is the /debug/slo document.
type Status struct {
	FastWindowTicks int               `json:"fast_window_ticks"`
	SlowWindowTicks int               `json:"slow_window_ticks"`
	BurnThreshold   float64           `json:"burn_threshold,omitempty"`
	Objectives      []ObjectiveStatus `json:"objectives"`
}

// Status reports every objective's current evaluation state.
func (e *Engine) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Status{
		FastWindowTicks: e.cfg.FastWindow,
		SlowWindowTicks: e.cfg.SlowWindow,
		BurnThreshold:   e.cfg.BurnThreshold,
	}
	for _, st := range e.objs {
		var target string
		switch st.obj.Kind {
		case KindLatency:
			target = st.obj.Threshold.String()
		case KindEnergy:
			target = fmt.Sprintf("%g pJ/frame", st.obj.TargetPJ)
		case KindAvailability:
			target = "non-error responses"
		case KindQualityChurn:
			target = fmt.Sprintf("churn <= %g", st.obj.Max)
		case KindQualityEmpty:
			target = "frames without empty clusters"
		}
		out.Objectives = append(out.Objectives, ObjectiveStatus{
			Name:            st.obj.Name,
			Kind:            st.obj.Kind,
			Target:          target,
			Budget:          st.obj.Budget,
			CumTotal:        st.cumTotal,
			CumBad:          st.cumBad,
			BudgetRemaining: st.budgetRemaining(),
			FastBurn:        st.burn(e.cfg.FastWindow),
			SlowBurn:        st.burn(e.cfg.SlowWindow),
			Alerting:        st.alerting,
		})
	}
	sort.Slice(out.Objectives, func(i, j int) bool {
		return out.Objectives[i].Name < out.Objectives[j].Name
	})
	return out
}

// Handler serves the engine's status as JSON at /debug/slo.
func Handler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "slo engine disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(e.Status())
	})
}

// ParseObjectives parses the -slo flag grammar: semicolon-separated
// objective specs, each a comma-separated kind plus key=value options:
//
//	latency,threshold=50ms,budget=0.01
//	availability,budget=0.001,name=api-availability
//	energy,target_pj=9e9,budget=0.05
//	quality.churn,max=0.35,budget=0.05
//	quality.empty,budget=0.02
//
// Budget defaults to 0.01 when omitted.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		o := Objective{Kind: Kind(strings.TrimSpace(fields[0])), Budget: 0.01}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("slo spec %q: option %q is not key=value", part, f)
			}
			var err error
			switch k {
			case "name":
				o.Name = v
			case "threshold":
				o.Threshold, err = time.ParseDuration(v)
			case "target_pj":
				o.TargetPJ, err = strconv.ParseFloat(v, 64)
			case "max":
				o.Max, err = strconv.ParseFloat(v, 64)
			case "budget":
				o.Budget, err = strconv.ParseFloat(v, 64)
			default:
				return nil, fmt.Errorf("slo spec %q: unknown option %q", part, k)
			}
			if err != nil {
				return nil, fmt.Errorf("slo spec %q: bad %s: %v", part, k, err)
			}
		}
		if o.Name == "" {
			o.Name = string(o.Kind)
		}
		if err := o.validate(); err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
