// Package faults is the repo's deterministic fault-injection layer: a
// seedable, registry-based injector whose named injection points are
// planted at the seams where a production segmentation service actually
// breaks — frame decode, pipeline stage hand-offs, pool admission, the
// S-SLIC subset-pass loop and tile bands, and tenant admission.
//
// The design goals, in order:
//
//   - Zero cost when disabled. Every planted point is a single atomic
//     pointer load returning nil; no map lookup, no allocation, no lock.
//     Fault injection is a build-in, not a build-out: the hooks ship in
//     production binaries and stay free until an injector is enabled.
//   - Deterministic schedules. Each point owns a splitmix64 stream
//     seeded from (injector seed, point name), so a given seed replays
//     the same fire/no-fire decision sequence per point regardless of
//     what other points do. `Every` makes a point fire on a fixed call
//     cadence with no randomness at all — the chaos suite's tool for
//     byte-reproducible failure schedules.
//   - Explicit actions. A firing point can add latency, return an
//     injected (transient, retryable) error, or panic — the three
//     failure shapes the robustness layer must absorb: slowness,
//     failure, and crash.
//
// Enabling is process-wide (Enable/Disable) because the points are
// planted in packages that predate any request context (imgio decode,
// the S-SLIC kernel). Tests that enable an injector must not run in
// parallel with tests that assume a fault-free process.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The planted injection points. Parse rejects unknown names so a typo'd
// -faults spec fails at startup instead of silently injecting nothing.
const (
	// PointDecode fires inside imgio.DecodeImageLimit, before the format
	// sniff — a failing or slow frame decoder.
	PointDecode = "imgio.decode"
	// PointPoolSubmit fires before every pipeline.Pool admission —
	// a failing or slow admission layer.
	PointPoolSubmit = "pool.submit"
	// PointPoolRun fires in the pool worker at the top of each
	// segmentation attempt, inside the worker's panic recover — an
	// error action is the transient per-frame fault the retry layer
	// absorbs; a panic action simulates a crashing worker and surfaces
	// as ErrSegmentPanic, never a process crash.
	PointPoolRun = "pool.run"
	// PointPipelineSource and PointPipelineSink fire at the streaming
	// pipeline's render and in-order delivery; its segmentation runs on
	// a Pool, under pool.submit and pool.run.
	PointPipelineSource = "pipeline.source"
	PointPipelineSink   = "pipeline.sink"
	// PointSubsetPass fires at the top of every S-SLIC subset pass (PPA
	// and CPA) — a fault inside the core compute loop.
	PointSubsetPass = "sslic.pass"
	// PointTile fires at the start of every tile band within a PPA
	// cluster-update pass — one firing per band per pass, concurrent with
	// the other bands when TileWorkers > 1. A failing band fails the pass
	// deterministically (lowest band index wins).
	PointTile = "sslic.tile"
	// PointTenantAdmit fires at the top of the multi-tenant fair
	// admission queue, before any quota is checked or slot reserved —
	// a failing or slow admission control plane. An error action is
	// reported to the client as a transient 503.
	PointTenantAdmit = "tenant.admit"
)

// KnownPoints lists every planted point, sorted, for spec validation
// and -faults usage text.
func KnownPoints() []string {
	pts := []string{
		PointDecode, PointPoolSubmit, PointPoolRun,
		PointPipelineSource, PointPipelineSink,
		PointSubsetPass, PointTile, PointTenantAdmit,
	}
	sort.Strings(pts)
	return pts
}

// ErrInjected is the sentinel every injected error wraps. Injected
// errors are transient by construction — the failure disappears when
// the schedule stops firing — which is what makes them the retry
// layer's classifier: IsTransient(err) == errors.Is(err, ErrInjected).
var ErrInjected = errors.New("fault injected")

// InjectedError is the concrete error a firing point returns.
type InjectedError struct {
	// Point is the injection point that fired.
	Point string
	// Msg is the configured message.
	Msg string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: %s at %s: %s", ErrInjected.Error(), e.Point, e.Msg)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// IsTransient reports whether err is (or wraps) an injected fault —
// the class the pool's bounded retry-with-backoff is allowed to retry.
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// PointConfig is one injection point's schedule and action.
type PointConfig struct {
	// Probability in [0, 1] fires the point on each call with this
	// chance, drawn from the point's seeded stream.
	Probability float64
	// Every fires the point deterministically on every Nth call
	// (1 = every call). When set it takes precedence over Probability.
	Every int
	// MaxFires bounds the total number of fires; 0 is unlimited.
	MaxFires int
	// Latency is slept on fire, before the error/panic action — the
	// "slow dependency" shape. Applies alone when no other action is set.
	Latency time.Duration
	// ErrMsg, when non-empty, makes the fire return an InjectedError.
	ErrMsg string
	// Panic makes the fire panic — the input the circuit breaker and
	// the pool's panic isolation exist for.
	Panic bool
}

// point is one named point's live state.
type point struct {
	cfg   PointConfig
	calls atomic.Int64
	fires atomic.Int64

	mu  sync.Mutex // guards rng
	rng uint64
}

// Injector holds a set of configured points. The zero value is not
// usable; construct with New or NewFromSpec.
type Injector struct {
	seed   int64
	mu     sync.RWMutex
	points map[string]*point
}

// New returns an injector with no points configured. All decisions
// derive from seed, so two injectors with equal seeds and equal point
// configurations replay identical schedules.
func New(seed int64) *Injector {
	return &Injector{seed: seed, points: map[string]*point{}}
}

// Set configures (or reconfigures) one point. Reconfiguring resets the
// point's call/fire counters and random stream.
func (in *Injector) Set(name string, cfg PointConfig) {
	h := fnv.New64a()
	h.Write([]byte(name))
	pt := &point{cfg: cfg, rng: uint64(in.seed) ^ h.Sum64()}
	if pt.rng == 0 {
		pt.rng = 0x9E3779B97F4A7C15
	}
	in.mu.Lock()
	in.points[name] = pt
	in.mu.Unlock()
}

// splitmix64 advances the state and returns the next value — a tiny,
// well-mixed generator that needs only one uint64 of state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Fire runs one call through the named point: it decides per the
// point's schedule, then applies latency, error or panic. Unconfigured
// points (and non-firing calls) return nil.
func (in *Injector) Fire(name string) error {
	in.mu.RLock()
	pt := in.points[name]
	in.mu.RUnlock()
	if pt == nil {
		return nil
	}
	n := pt.calls.Add(1)
	cfg := pt.cfg
	fire := false
	switch {
	case cfg.Every > 0:
		fire = n%int64(cfg.Every) == 0
	case cfg.Probability > 0:
		pt.mu.Lock()
		fire = float64(splitmix64(&pt.rng)>>11)/(1<<53) < cfg.Probability
		pt.mu.Unlock()
	}
	if !fire {
		return nil
	}
	if f := pt.fires.Add(1); cfg.MaxFires > 0 && f > int64(cfg.MaxFires) {
		pt.fires.Add(-1) // suppressed: the budget is spent
		return nil
	}
	if cfg.Latency > 0 {
		time.Sleep(cfg.Latency)
	}
	if cfg.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s", name))
	}
	if cfg.ErrMsg != "" {
		return &InjectedError{Point: name, Msg: cfg.ErrMsg}
	}
	return nil
}

// PointStats is one point's observed activity.
type PointStats struct {
	// Calls counts every pass through the point; Fires the subset where
	// the schedule triggered the action.
	Calls, Fires int64
}

// Stats snapshots every configured point's counters — the injector's
// own observability, mirrorable onto a telemetry registry by callers.
func (in *Injector) Stats() map[string]PointStats {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make(map[string]PointStats, len(in.points))
	for name, pt := range in.points {
		out[name] = PointStats{Calls: pt.calls.Load(), Fires: pt.fires.Load()}
	}
	return out
}

// active is the process-wide injector the planted hooks consult. nil
// (the default) means fault injection is off and Fire is a single
// atomic load.
var active atomic.Pointer[Injector]

// Enable installs in as the process-wide injector. Passing nil disables.
func Enable(in *Injector) {
	active.Store(in)
}

// Disable turns fault injection off.
func Disable() { active.Store(nil) }

// Active returns the installed injector, or nil when disabled.
func Active() *Injector { return active.Load() }

// Fire is the hook planted at every injection point: with no injector
// enabled it is one atomic pointer load and a nil check.
func Fire(name string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.Fire(name)
}

// Parse reads a fault schedule spec of the form
//
//	point:action[,action...][;point:action...]
//
// where each action is one of
//
//	prob=F        fire with probability F per call (seeded stream)
//	every=N       fire on every Nth call (deterministic)
//	max=N         stop after N fires
//	latency=DUR   sleep DUR on fire (Go duration syntax, e.g. 50ms)
//	error[=MSG]   return an injected transient error
//	panic         panic
//
// Example: "sslic.pass:error,prob=0.2;pool.submit:latency=50ms,every=10".
// Unknown point names and malformed actions are errors.
func Parse(spec string) (map[string]PointConfig, error) {
	known := map[string]bool{}
	for _, p := range KnownPoints() {
		known[p] = true
	}
	out := map[string]PointConfig{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, actions, ok := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("faults: entry %q: want point:action[,action...]", entry)
		}
		if !known[name] {
			return nil, fmt.Errorf("faults: unknown point %q (known: %s)", name, strings.Join(KnownPoints(), ", "))
		}
		var cfg PointConfig
		for _, act := range strings.Split(actions, ",") {
			act = strings.TrimSpace(act)
			if act == "" {
				continue
			}
			key, val, _ := strings.Cut(act, "=")
			var err error
			switch key {
			case "prob":
				cfg.Probability, err = strconv.ParseFloat(val, 64)
				if err == nil && (cfg.Probability < 0 || cfg.Probability > 1) {
					err = fmt.Errorf("out of [0, 1]")
				}
			case "every":
				cfg.Every, err = strconv.Atoi(val)
				if err == nil && cfg.Every < 1 {
					err = fmt.Errorf("want >= 1")
				}
			case "max":
				cfg.MaxFires, err = strconv.Atoi(val)
			case "latency":
				cfg.Latency, err = time.ParseDuration(val)
			case "error":
				if val == "" {
					val = "injected error"
				}
				cfg.ErrMsg = val
			case "panic":
				cfg.Panic = true
			default:
				err = fmt.Errorf("unknown action")
			}
			if err != nil {
				return nil, fmt.Errorf("faults: point %s: action %q: %v", name, act, err)
			}
		}
		if cfg.Probability == 0 && cfg.Every == 0 {
			return nil, fmt.Errorf("faults: point %s: no schedule (need prob= or every=)", name)
		}
		if cfg.Latency == 0 && cfg.ErrMsg == "" && !cfg.Panic {
			return nil, fmt.Errorf("faults: point %s: no action (need latency=, error or panic)", name)
		}
		out[name] = cfg
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: empty spec")
	}
	return out, nil
}

// NewFromSpec parses spec and returns a ready injector — the -faults
// flag implementation shared by sslic-serve and sslic-video.
func NewFromSpec(seed int64, spec string) (*Injector, error) {
	cfgs, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	in := New(seed)
	for name, cfg := range cfgs {
		in.Set(name, cfg)
	}
	return in, nil
}
