// Package telemetry is the repo's unified observability layer: a
// zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text-format exposition, a
// log/slog-based structured logger with per-component levels, a
// lightweight span API for per-frame latency tracking, and an HTTP
// server exposing /metrics, /healthz, /debug/vars and net/http/pprof.
//
// The paper's whole argument is quantitative — ops/iteration,
// MB/iteration, energy per frame — and this package makes those same
// quantities observable live on a running stream instead of only in
// one-shot CLI printouts. Every layer (the S-SLIC core, the frame
// pipeline, the hardware model) registers its counters here, so the
// Table 2/3 quantities are scrapable gauges.
//
// Concurrency: metric writes (Add, Inc, Set, Observe) are lock-free
// atomics safe from any goroutine. Registration takes a registry lock;
// register once at setup, then hand the returned handles to hot loops.
// Exposition takes a snapshot that is consistent enough for monitoring:
// individual atomics are read without a global pause, so a scrape racing
// a writer can see a histogram whose sum trails its count by an
// in-flight observation.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// metric kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// atomicFloat is a float64 updated with compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}

func (f *atomicFloat) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// storeMax raises the value to v if v is larger.
func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// storeMin lowers the value to v if v is smaller.
func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter. Negative deltas are a programming error and
// panic: a counter that goes down breaks every rate() over it.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("telemetry: counter add of negative %g", v))
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomicFloat
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation the pipeline's queue-depth gauges use.
func (g *Gauge) SetMax(v float64) { g.v.storeMax(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets and
// tracks sum, count, min and max. Bucket bounds are set at registration
// and immutable. Observations are lock-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
	ex     atomic.Pointer[Exemplar]
}

// Exemplar links a histogram's slowest observation to the trace that
// produced it, so a bad p99 on a scrape leads directly to a stored
// flight-recorder trace instead of a grep through logs.
type Exemplar struct {
	// Value is the observed value (seconds for latency histograms).
	Value float64
	// TraceID identifies the trace that produced the observation.
	TraceID string
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
	h.min.Store(math.Inf(1))
	h.max.Store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search buys nothing at this size.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// ObserveExemplar records v like Observe and, when traceID is non-empty
// and v is the largest exemplar-carrying observation so far, attaches
// it as the histogram's exemplar. The update is a CAS loop on a
// pointer, so the hot path stays lock-free.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	for {
		old := h.ex.Load()
		if old != nil && old.Value >= v {
			return
		}
		if h.ex.CompareAndSwap(old, &Exemplar{Value: v, TraceID: traceID}) {
			return
		}
	}
}

// ClearExemplar drops the stored exemplar (tests and counter resets).
func (h *Histogram) ClearExemplar() { h.ex.Store(nil) }

// HistogramSnapshot is a point-in-time read of a histogram.
type HistogramSnapshot struct {
	// Count and Sum are the observation count and value sum.
	Count uint64
	Sum   float64
	// Min and Max are the extreme observed values; both are zero when
	// Count is zero.
	Min, Max float64
	// Bounds are the bucket upper bounds; Counts the per-bucket
	// (non-cumulative) observation counts, with Counts[len(Bounds)]
	// holding the overflow (+Inf) bucket.
	Bounds []float64
	Counts []uint64
	// Exemplar is the slowest trace-linked observation, nil when no
	// traced observation has been recorded.
	Exemplar *Exemplar
}

// Mean returns Sum/Count, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Sub returns the windowed difference s − prev: the observations that
// arrived between the two snapshots of the same (monotone) histogram.
// Min, Max and Exemplar are not differentiable and are left zero. A
// zero-valued or mismatched prev (different bucket layout) is treated
// as empty, so the first window of a sampling loop needs no special
// case.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: append([]uint64(nil), s.Counts...),
	}
	if len(prev.Counts) != len(s.Counts) || prev.Count > s.Count {
		out.Count = s.Count
		out.Sum = s.Sum
		return out
	}
	out.Count = s.Count - prev.Count
	out.Sum = s.Sum - prev.Sum
	for i := range out.Counts {
		out.Counts[i] -= prev.Counts[i]
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts with linear interpolation inside the target bucket — the same
// estimate Prometheus's histogram_quantile computes. Observations in
// the overflow bucket are credited to the highest finite bound (or Max
// when the snapshot carries one), so the estimate is conservative but
// bounded. Returns 0 when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	lower := 0.0
	for i, b := range s.Bounds {
		c := float64(s.Counts[i])
		if c > 0 && cum+c >= rank {
			return lower + (b-lower)*(rank-cum)/c
		}
		cum += c
		lower = b
	}
	// Target falls in the +Inf bucket.
	if s.Max > lower {
		return s.Max
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return s.Max
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Counts[len(h.bounds)] = h.inf.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	s.Exemplar = h.ex.Load()
	return s
}

// DefBuckets are the default latency buckets in seconds, matching the
// conventional Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// series is one labeled instance within a family.
type series struct {
	labels []Label
	key    string // rendered label key for dedup and sort
	c      *Counter
	g      *Gauge
	fn     func() float64 // gauge func; nil otherwise
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name, help string
	kind       string
	bounds     []float64 // histogram families only
	series     []*series
	byKey      map[string]*series
}

// Registry holds metric families and hands out series handles.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or retrieves) the counter series with the given
// name and labels. Registering the same name with a different metric
// kind panics — that is a wiring error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, nil, nil, labels)
	return s.c
}

// Gauge registers (or retrieves) the gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, nil, nil, labels)
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for derived quantities like hit ratios.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, fn, nil, labels)
}

// Histogram registers (or retrieves) the histogram series. A nil or
// empty buckets slice selects DefBuckets. All series of one histogram
// family share the bounds given at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	s := r.register(name, help, kindHistogram, nil, buckets, labels)
	return s.h
}

func (r *Registry) register(name, help, kind string, fn func() float64, buckets []float64, labels []Label) *series {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabelName(l.Name)
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		if kind == kindHistogram {
			b := append([]float64(nil), buckets...)
			sort.Float64s(b)
			f.bounds = b
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: sorted, key: key}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		if fn != nil {
			s.fn = fn
		} else {
			s.g = &Gauge{}
		}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	return s
}

// snapshotFamilies returns the families sorted by name with their series
// slices copied, so exposition can iterate without holding the lock.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		cp := &family{name: f.name, help: f.help, kind: f.kind, bounds: f.bounds}
		cp.series = append(cp.series, f.series...)
		out = append(out, cp)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func labelKey(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	k := ""
	for _, l := range sorted {
		k += l.Name + "\x00" + l.Value + "\x00"
	}
	return k
}

func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func mustValidLabelName(name string) {
	if !validName(name, false) || name == "le" {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

// validName checks the Prometheus identifier grammar; colons are legal
// in metric names only.
func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
