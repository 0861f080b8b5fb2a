// Package degrade is the service's adaptive graceful-degradation layer:
// a small load controller that watches queue fill, deadline misses,
// saturation rejections, the SLO engine's fast burn and a quality
// floor, and steps the service through explicit quality levels instead
// of letting overload express itself as a wall of 429s.
//
// The levels trade segmentation quality for per-frame compute along the
// exact knobs the paper quantifies (Table 4: iteration count and
// subsampling ratio against boundary recall, §3.3: superpixel count
// against work per pass), so each step has a known, bounded quality
// cost and a known compute saving:
//
//	Level 0 — full quality: the request's parameters run untouched.
//	Level 1 — halved iterations (min 3): converged-enough centers; the
//	          paper's residual curves flatten well before iteration 10.
//	Level 2 — coarser subsampling (ratio halved, floor 0.25): the
//	          S-SLIC(0.25) datapoint the paper shows losing ~1% boundary
//	          recall for ~4× fewer distance computations.
//	Level 3 — fewer superpixels (K halved, floor 16): linearly less
//	          center-update and assignment work at coarser granularity.
//	Level 4 — shed: the request is refused outright (HTTP 503); the
//	          levels below exist so this one is rarely reached.
//
// Levels are cumulative: level 2 also applies level 1, and so on. The
// mapping is deterministic — a frame segmented at level L always
// produces the same labels as any other run of that frame at level L —
// so degraded outputs stay byte-reproducible, which is what lets the
// chaos suite golden-test them.
//
// The controller moves between levels with hysteresis (consecutive
// overloaded ticks to step up, a longer run of calm ticks to step
// down) so bursty load does not make the quality flap.
package degrade

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// Level is a degradation step. Higher is more degraded.
type Level int

const (
	// Full runs requests with their own parameters.
	Full Level = iota
	// HalfIters halves the iteration budget (floor 3).
	HalfIters
	// CoarseSubsample additionally halves the subsample ratio (floor 0.25).
	CoarseSubsample
	// FewerSuperpixels additionally halves K (floor 16).
	FewerSuperpixels
	// Shed refuses the request.
	Shed
	numLevels
)

// MaxLevel is the highest (most degraded) level.
const MaxLevel = Shed

func (l Level) String() string {
	switch l {
	case Full:
		return "full"
	case HalfIters:
		return "half-iters"
	case CoarseSubsample:
		return "coarse-subsample"
	case FewerSuperpixels:
		return "fewer-superpixels"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Apply maps segmentation parameters onto a degradation level. Levels
// are cumulative; Shed returns the level-3 parameters (the caller
// sheds before segmenting). Apply is pure: equal inputs give equal
// outputs, keeping degraded results deterministic.
func Apply(p sslic.Params, l Level) sslic.Params {
	if l >= HalfIters {
		if p.FullIters > 3 {
			p.FullIters = maxInt(3, p.FullIters/2)
		}
	}
	if l >= CoarseSubsample {
		if r := p.SubsampleRatio / 2; r >= 0.25 {
			p.SubsampleRatio = r
		} else if p.SubsampleRatio > 0.25 {
			p.SubsampleRatio = 0.25
		}
	}
	if l >= FewerSuperpixels {
		if p.K > 16 {
			p.K = maxInt(16, p.K/2)
		}
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Signals is one observation window of service load, fed to Tick.
type Signals struct {
	// QueueFill is the admission-queue fill fraction in [0, 1]
	// (depth / capacity), read when the window closes.
	QueueFill float64
	// DeadlineMisses counts requests that exceeded their deadline in
	// the window.
	DeadlineMisses int
	// Rejected counts admission rejections (saturation) in the window.
	Rejected int
	// BurnRate is the SLO engine's maximum fast-window error-budget
	// burn across objectives (1 = sustainable consumption); zero when
	// no SLO engine is wired.
	BurnRate float64
	// QualityCollapsed reports that the window's segmentation-quality
	// proxies (label churn, empty clusters, residual convergence) fell
	// below the configured floor; QualityObserved reports whether the
	// window carried any quality observation at all. Windows without
	// observations (idle service, quality tracking disabled) move
	// neither floor streak — the floor is a tri-state signal, not a
	// boolean. See internal/quality.
	QualityCollapsed bool
	QualityObserved  bool
}

// A window is overloaded when the queue is at least queueHigh full and
// calm when it is at most queueLow full.
const queueHigh, queueLow = 0.75, 0.25

// Config tunes a Controller. The zero value selects the defaults
// documented per field.
type Config struct {
	// Max bounds escalation; 0 selects Shed (the full ladder).
	Max Level
	// StepUpHold is the consecutive overloaded ticks required to step
	// up a level; StepDownHold the consecutive calm ticks to step
	// down. 0 selects 2 and 5 — stepping down is deliberately slower
	// than stepping up, so recovery cannot oscillate against a load
	// edge.
	StepUpHold, StepDownHold int
	// BurnHigh marks the window overloaded when Signals.BurnRate
	// reaches it; calm additionally requires burn below BurnHigh/2
	// (the same high/low hysteresis band as queueHigh and queueLow).
	// 0 ignores the SLO signal.
	BurnHigh float64
	// FloorHold is the consecutive quality-collapsed ticks that pin the
	// quality floor at the current level; FloorRelease the consecutive
	// quality-good ticks that release it. 0 selects 2 and 5 — the same
	// asymmetry as the load hysteresis, so the floor engages fast and
	// releases cautiously. The floor is the ladder's two-sided control:
	// while pinned, overload cannot step the level past it, so a blown
	// latency budget stops trading away quality the proxies say is
	// already gone. Ticks without a quality observation move neither
	// streak.
	FloorHold, FloorRelease int
	// Registry receives the controller's metrics; nil selects a
	// private one.
	Registry *telemetry.Registry
	// Logger, when set, logs level transitions.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Max <= 0 || c.Max >= numLevels {
		c.Max = Shed
	}
	if c.StepUpHold <= 0 {
		c.StepUpHold = 2
	}
	if c.StepDownHold <= 0 {
		c.StepDownHold = 5
	}
	if c.FloorHold <= 0 {
		c.FloorHold = 2
	}
	if c.FloorRelease <= 0 {
		c.FloorRelease = 5
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Controller is the level state machine. Level is safe to read from
// any goroutine (the per-request hot path); Tick is called from one
// sampling loop.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	level      Level
	upStreak   int
	downStreak int
	pinned     bool

	// Quality-floor state: while floorPinned, step-up stops at floor.
	floor       Level
	floorPinned bool
	badStreak   int
	goodStreak  int

	gauge      *telemetry.Gauge
	floorGauge *telemetry.Gauge
	ups        *telemetry.Counter
	downs      *telemetry.Counter
	floorPins  *telemetry.Counter
	floorFrees *telemetry.Counter
}

// New returns a controller at level 0.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	c := &Controller{
		cfg: cfg,
		gauge: reg.Gauge("sslic_degrade_level",
			"Current degradation level (0 full … 4 shed)."),
		ups: reg.Counter("sslic_degrade_transitions_total",
			"Degradation level transitions, by direction.",
			telemetry.Label{Name: "direction", Value: "up"}),
		downs: reg.Counter("sslic_degrade_transitions_total",
			"Degradation level transitions, by direction.",
			telemetry.Label{Name: "direction", Value: "down"}),
		floorGauge: reg.Gauge("sslic_degrade_quality_floor",
			"Quality-floor level escalation is capped at; -1 when unpinned."),
		floorPins: reg.Counter("sslic_degrade_floor_events_total",
			"Quality-floor transitions, by kind.",
			telemetry.Label{Name: "kind", Value: "pin"}),
		floorFrees: reg.Counter("sslic_degrade_floor_events_total",
			"Quality-floor transitions, by kind.",
			telemetry.Label{Name: "kind", Value: "release"}),
	}
	c.floorGauge.Set(-1)
	return c
}

// Level returns the current degradation level.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Pin forces the level until Unpin — the operator override (and the
// chaos suite's way to hold a level while golden-testing its output).
func (c *Controller) Pin(l Level) {
	if l < Full {
		l = Full
	}
	if l > c.cfg.Max {
		l = c.cfg.Max
	}
	c.mu.Lock()
	c.setLevel(l)
	c.pinned = true
	c.upStreak, c.downStreak = 0, 0
	c.mu.Unlock()
}

// Unpin returns control to the signal loop from the pinned level.
func (c *Controller) Unpin() {
	c.mu.Lock()
	c.pinned = false
	c.mu.Unlock()
}

// Floor returns the quality-floor level and whether it is currently
// pinned. While pinned, Tick will not escalate past it.
func (c *Controller) Floor() (Level, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor, c.floorPinned
}

// tickFloor advances the quality-floor hysteresis from one window's
// quality signal. Ticks without an observation leave both streaks
// untouched, so an idle service neither pins nor releases. Caller
// holds mu.
func (c *Controller) tickFloor(s Signals) {
	if !s.QualityObserved {
		return
	}
	if s.QualityCollapsed {
		c.goodStreak = 0
		c.badStreak++
		if !c.floorPinned && c.badStreak >= c.cfg.FloorHold {
			c.floorPinned = true
			c.floor = c.level
			c.floorGauge.Set(float64(c.floor))
			c.floorPins.Inc()
			if c.cfg.Logger != nil {
				c.cfg.Logger.Warn("quality floor pinned",
					"level", c.floor.String())
			}
		}
		return
	}
	c.badStreak = 0
	c.goodStreak++
	if c.floorPinned && c.goodStreak >= c.cfg.FloorRelease {
		c.floorPinned = false
		c.goodStreak = 0
		c.floorGauge.Set(-1)
		c.floorFrees.Inc()
		if c.cfg.Logger != nil {
			c.cfg.Logger.Info("quality floor released")
		}
	}
}

// setLevel transitions and mirrors to telemetry. Caller holds mu.
func (c *Controller) setLevel(l Level) {
	if l == c.level {
		return
	}
	if l > c.level {
		c.ups.Inc()
	} else {
		c.downs.Inc()
	}
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("degradation level change",
			"from", c.level.String(), "to", l.String())
	}
	c.level = l
	c.gauge.Set(float64(l))
}

// Tick feeds one observation window to the state machine and returns
// the level in effect after it. Overload (queue at least queueHigh
// full, burn at BurnHigh, or any deadline miss or rejection) must
// persist for StepUpHold consecutive ticks to step up; calm must
// persist for StepDownHold ticks to step down. Mixed windows reset
// both streaks, holding the current level.
func (c *Controller) Tick(s Signals) Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickFloor(s)
	if c.pinned {
		return c.level
	}
	overloaded := s.QueueFill >= queueHigh ||
		(c.cfg.BurnHigh > 0 && s.BurnRate >= c.cfg.BurnHigh) ||
		s.DeadlineMisses > 0 || s.Rejected > 0
	calm := s.QueueFill <= queueLow &&
		(c.cfg.BurnHigh <= 0 || s.BurnRate < c.cfg.BurnHigh/2) &&
		s.DeadlineMisses == 0 && s.Rejected == 0

	switch {
	case overloaded:
		c.downStreak = 0
		c.upStreak++
		// The quality floor is the ladder's second side: overload may
		// escalate only while escalation still buys latency at a
		// quality the proxies accept. A pinned floor caps step-up at
		// the level the collapse was detected at.
		atFloor := c.floorPinned && c.level >= c.floor
		if c.upStreak >= c.cfg.StepUpHold && c.level < c.cfg.Max && !atFloor {
			c.setLevel(c.level + 1)
			c.upStreak = 0
		}
	case calm:
		c.upStreak = 0
		c.downStreak++
		if c.downStreak >= c.cfg.StepDownHold && c.level > Full {
			c.setLevel(c.level - 1)
			c.downStreak = 0
		}
	default:
		c.upStreak, c.downStreak = 0, 0
	}
	return c.level
}

// Run drives the controller from a sampling function until ctx is
// done: every interval it calls sample and feeds the result to Tick.
// It blocks; callers run it in a goroutine.
func (c *Controller) Run(ctx context.Context, interval time.Duration, sample func() Signals) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(sample())
		}
	}
}
