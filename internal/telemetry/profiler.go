package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Capturer is the burn-triggered continuous-profiling layer: a bounded
// ring of pprof bundles, each pairing CPU/heap/goroutine profiles with
// a runtime-metrics snapshot and the trace IDs in flight at capture
// time. When the SLO engine reports budget burn (or an operator asks
// via /debug/profiles?capture=1), the capturer grabs one bundle — so a
// burning objective yields trace + profile + cost ledger for the same
// moment, not a page telling an operator to go reproduce the problem.
//
// Captures are serialized (one at a time; the Go runtime allows only
// one CPU profile anyway) and rate-limited by a cooldown so a
// persistently burning SLO cannot turn the service into a profiler.
type Capturer struct {
	cfg CaptureConfig

	active atomic.Bool // a capture is in progress
	lastNs atomic.Int64
	async  sync.WaitGroup // the capture TryCapture started

	mu      sync.Mutex
	ring    []*ProfileBundle // newest last, bounded by Capacity
	nextSeq int

	captures *Counter // base; per-reason series via reason label
	errs     *Counter
}

// CaptureConfig tunes a Capturer.
type CaptureConfig struct {
	// Capacity bounds the retained bundles; the oldest is dropped
	// beyond it. <= 0 selects 8.
	Capacity int
	// CPUDuration is how long the CPU profile samples; <= 0 selects
	// 250ms. Heap and goroutine profiles are instantaneous.
	CPUDuration time.Duration
	// Cooldown is the minimum spacing between burn-triggered captures;
	// <= 0 selects 30s. On-demand captures (force=true) ignore it.
	Cooldown time.Duration
	// TraceIDs, when set, supplies the trace IDs to link into the
	// bundle (the server passes its in-flight set plus recent keeps).
	TraceIDs func() []string
	// Runtime, when set, supplies the runtime-metrics snapshot embedded
	// in the bundle (RuntimeMetrics.Snapshot).
	Runtime func() map[string]float64
	// Registry receives the capture counters; nil skips registration.
	Registry *Registry
}

func (c CaptureConfig) withDefaults() CaptureConfig {
	if c.Capacity <= 0 {
		c.Capacity = 8
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = 250 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// ProfileBundle is one capture: the three pprof profiles plus the
// runtime and trace context they were taken in.
type ProfileBundle struct {
	// ID identifies the bundle ("p1", "p2", …).
	ID string `json:"id"`
	// Reason names the trigger: "burn:<objective>" or "on-demand".
	Reason string `json:"reason"`
	// Start is the capture start time; CPUDurNs the CPU sampling window.
	Start    time.Time `json:"start"`
	CPUDurNs int64     `json:"cpu_dur_ns"`
	// TraceIDs are the flight-recorder traces in flight or recently
	// kept at capture time — the join key back to per-request
	// timelines and cost ledgers.
	TraceIDs []string `json:"trace_ids,omitempty"`
	// Runtime is the runtime-metrics snapshot at capture time.
	Runtime map[string]float64 `json:"runtime,omitempty"`
	// Err records a partial capture (e.g. the CPU profiler was busy);
	// the other profiles are still present.
	Err string `json:"err,omitempty"`

	// The raw gzipped pprof payloads (not serialized in listings).
	CPU       []byte `json:"-"`
	Heap      []byte `json:"-"`
	Goroutine []byte `json:"-"`
}

// NewCapturer builds a capturer.
func NewCapturer(cfg CaptureConfig) *Capturer {
	cfg = cfg.withDefaults()
	c := &Capturer{cfg: cfg}
	if cfg.Registry != nil {
		c.captures = cfg.Registry.Counter("sslic_profile_captures_total",
			"Profile bundles captured.")
		c.errs = cfg.Registry.Counter("sslic_profile_capture_errors_total",
			"Profile captures that failed or were partial.")
	}
	return c
}

// TryCapture starts an asynchronous capture if none is running and the
// cooldown has elapsed — the burn-threshold hook. Reports whether a
// capture was started.
func (c *Capturer) TryCapture(reason string) bool {
	if c == nil {
		return false
	}
	now := time.Now().UnixNano()
	last := c.lastNs.Load()
	if last != 0 && time.Duration(now-last) < c.cfg.Cooldown {
		return false
	}
	if !c.lastNs.CompareAndSwap(last, now) {
		return false // lost a race with another trigger
	}
	if !c.active.CompareAndSwap(false, true) {
		return false
	}
	c.async.Add(1)
	go func() {
		defer c.async.Done()
		defer c.active.Store(false)
		c.capture(reason)
	}()
	return true
}

// Wait blocks until the capture TryCapture started, if any, has
// stored its bundle.
func (c *Capturer) Wait() {
	if c != nil {
		c.async.Wait()
	}
}

// Capture runs one capture synchronously, ignoring the cooldown — the
// on-demand path. Returns the stored bundle.
func (c *Capturer) Capture(reason string) (*ProfileBundle, error) {
	if c == nil {
		return nil, fmt.Errorf("telemetry: nil capturer")
	}
	if !c.active.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("telemetry: a capture is already in progress")
	}
	defer c.active.Store(false)
	c.lastNs.Store(time.Now().UnixNano())
	return c.capture(reason), nil
}

// capture does the work: CPU sampling window, instantaneous heap and
// goroutine profiles, runtime snapshot, trace linkage, ring insert.
func (c *Capturer) capture(reason string) *ProfileBundle {
	b := &ProfileBundle{
		Reason:   reason,
		Start:    time.Now(),
		CPUDurNs: int64(c.cfg.CPUDuration),
	}
	if c.cfg.TraceIDs != nil {
		b.TraceIDs = c.cfg.TraceIDs()
	}
	if c.cfg.Runtime != nil {
		b.Runtime = c.cfg.Runtime()
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		// Another profiler (e.g. /debug/pprof/profile) holds the CPU
		// profile; keep the instantaneous profiles rather than nothing.
		b.Err = fmt.Sprintf("cpu profile unavailable: %v", err)
		if c.errs != nil {
			c.errs.Inc()
		}
	} else {
		time.Sleep(c.cfg.CPUDuration)
		pprof.StopCPUProfile()
		b.CPU = cpu.Bytes()
	}
	var heap, gor bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		p.WriteTo(&heap, 0)
		b.Heap = heap.Bytes()
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&gor, 0)
		b.Goroutine = gor.Bytes()
	}

	c.mu.Lock()
	c.nextSeq++
	b.ID = fmt.Sprintf("p%d", c.nextSeq)
	c.ring = append(c.ring, b)
	if len(c.ring) > c.cfg.Capacity {
		c.ring = c.ring[len(c.ring)-c.cfg.Capacity:]
	}
	c.mu.Unlock()
	if c.captures != nil {
		c.captures.Inc()
	}
	return b
}

// Bundles returns the stored bundles, newest first.
func (c *Capturer) Bundles() []*ProfileBundle {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ProfileBundle, 0, len(c.ring))
	for i := len(c.ring) - 1; i >= 0; i-- {
		out = append(out, c.ring[i])
	}
	return out
}

// Lookup returns the bundle with the given ID, or nil.
func (c *Capturer) Lookup(id string) *ProfileBundle {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.ring {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// Handler serves the capture surface:
//
//	GET /debug/profiles                 JSON listing (newest first)
//	GET /debug/profiles?capture=1       synchronous on-demand capture
//	GET /debug/profiles?id=p3           one bundle's metadata (JSON)
//	GET /debug/profiles?id=p3&kind=cpu  raw pprof payload (cpu|heap|goroutine)
func ProfilesHandler(c *Capturer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c == nil {
			http.Error(w, "profiling disabled", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		if q.Get("capture") != "" {
			b, err := c.Capture("on-demand")
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			writeJSON(w, b)
			return
		}
		id := q.Get("id")
		if id == "" {
			writeJSON(w, c.Bundles())
			return
		}
		b := c.Lookup(id)
		if b == nil {
			http.Error(w, "no such profile bundle", http.StatusNotFound)
			return
		}
		switch kind := q.Get("kind"); kind {
		case "":
			writeJSON(w, b)
		case "cpu", "heap", "goroutine":
			var payload []byte
			switch kind {
			case "cpu":
				payload = b.CPU
			case "heap":
				payload = b.Heap
			case "goroutine":
				payload = b.Goroutine
			}
			if len(payload) == 0 {
				http.Error(w, "profile kind empty in this bundle", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf("attachment; filename=%s-%s.pprof", id, kind))
			w.Write(payload)
		default:
			http.Error(w, "kind must be cpu, heap or goroutine", http.StatusBadRequest)
		}
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
