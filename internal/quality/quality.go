// Package quality computes the live quality proxies of a served frame
// from what the segmentation returns — its labels, its center count
// and its residual history — and makes them observable. The paper's
// value claim is a quality/speed/energy trade-off (boundary recall at
// real-time frame rates), and the serving layer actively spends
// quality at runtime — the degrade ladder halves iterations and
// coarsens subsampling under load — so the quality axis must be
// observable per stream while the service runs, not only in offline
// benchmarks.
//
// The proxies are deliberately cheap, deterministic and alloc-free in
// the steady-state request path, and this package is the one place
// that computes them (proxies.go):
//
//   - residual convergence (FinalResidual and ResidualDecay, the
//     first→last decay) from the run's residual history,
//     sslic.Stats.MoveHistory, which the run records per pass;
//   - inter-frame label churn (LabelChurn), the fraction of pixels
//     whose label changed against the previous frame, read off the
//     stream's slbl-delta base the wire layer already keeps;
//   - empty-cluster count and cluster-size coefficient of variation
//     from one scan of the final labels (ScanLabels;
//     under-segmentation collapse);
//   - boundary density (boundary pixels / frame pixels, from the same
//     scan), the live stand-in for the paper's boundary-recall axis.
//
// The segmentation core computes none of them, so a caller that does
// not read them does not pay for them.
//
// A Tracker folds per-frame Samples into registry series (global
// histograms plus per-stream gauges under the stream table's labels)
// and into each stream's record in that table, and serves the
// /debug/streams introspection JSON. It also counts the frames that
// trip configured floors; the server's control tick turns each
// window's share of them into the degrade controller's two-sided
// quality-floor signal, so a blown latency budget cannot walk the
// ladder past the point where segmentations stop being worth serving.
package quality

import (
	"strings"
	"time"

	"sslic/internal/stream"
	"sslic/internal/telemetry"
)

// Config tunes a Tracker.
type Config struct {
	// Registry receives the quality series; nil selects a private one.
	Registry *telemetry.Registry
	// Streams keeps each stream's quality record and metric label next
	// to its warm and delta state; nil selects a private table.
	Streams *stream.Table

	// Floor thresholds: a frame trips the quality floor when any
	// enabled check fails. <= 0 disables a check.
	//
	// MaxChurn is the inter-frame label churn ratio (changed pixels /
	// frame pixels) above which a frame counts as collapsed.
	MaxChurn float64
	// MaxEmptyFrac is the empty-cluster fraction (empty / effective K)
	// above which a frame counts as collapsed.
	MaxEmptyFrac float64
	// MaxResidualDecay flags non-convergence: a cold run whose final
	// residual is above MaxResidualDecay × its first residual counts as
	// collapsed (warm runs with fewer than two passes are exempt).
	MaxResidualDecay float64

	// FloorFunc, when set, lets /debug/streams report the degrade
	// controller's current quality floor (level, pinned).
	FloorFunc func() (level int, pinned bool)
}

// Sample is one successfully segmented frame's quality observation;
// the stream table keeps each stream's latest.
type Sample = stream.Sample

// Tracker folds frame Samples into live quality series and into the
// per-stream records behind /debug/streams, which live in the stream
// table.
type Tracker struct {
	cfg Config
	reg *telemetry.Registry

	churnHist *telemetry.Histogram
	frames    *telemetry.Counter
	emptyFr   *telemetry.Counter
	collapsed *telemetry.Counter
}

// NewTracker builds a Tracker and registers its series.
func NewTracker(cfg Config) *Tracker {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Streams == nil {
		cfg.Streams = stream.New(stream.Config{Registry: cfg.Registry})
	}
	t := &Tracker{cfg: cfg, reg: cfg.Registry}
	t.churnHist = cfg.Registry.Histogram("sslic_quality_churn_ratio",
		"Inter-frame label churn: changed pixels / frame pixels, per delta-capable frame.",
		[]float64{.001, .0025, .005, .01, .025, .05, .1, .2, .35, .5, .75})
	t.frames = cfg.Registry.Counter("sslic_quality_frames_total",
		"Frames with a quality observation.")
	t.emptyFr = cfg.Registry.Counter("sslic_quality_empty_cluster_frames_total",
		"Frames with at least one empty cluster.")
	t.collapsed = cfg.Registry.Counter("sslic_quality_collapsed_frames_total",
		"Frames that tripped a quality-floor threshold.")
	return t
}

// bad evaluates the floor thresholds against one sample.
func (t *Tracker) bad(s Sample) bool {
	if t.cfg.MaxChurn > 0 && s.Churn >= 0 && s.Churn > t.cfg.MaxChurn {
		return true
	}
	if t.cfg.MaxEmptyFrac > 0 && s.Clusters > 0 &&
		float64(s.EmptyClusters)/float64(s.Clusters) > t.cfg.MaxEmptyFrac {
		return true
	}
	if t.cfg.MaxResidualDecay > 0 && s.Passes >= 2 && !s.Warm &&
		s.ResidualDecay > t.cfg.MaxResidualDecay {
		return true
	}
	return false
}

// Observe folds one frame into the tracker and into its stream's
// record. Steady-state calls for an already-known stream are
// allocation-free: rings and cached gauges only.
func (t *Tracker) Observe(s Sample) {
	t.frames.Inc()
	if s.EmptyClusters > 0 {
		t.emptyFr.Inc()
	}
	if s.Churn >= 0 {
		t.churnHist.Observe(s.Churn)
	}
	bad := t.bad(s)
	if bad {
		t.collapsed.Inc()
	}

	t.cfg.Streams.Record(s.Stream, func(q *stream.Quality, label string) {
		now := time.Now()
		if q.Frames == 0 {
			// A new record: its gauges carry the key's label, which is
			// the same after an eviction, so a returning stream writes
			// its old series.
			lbl := telemetry.Label{Name: "stream", Value: label}
			q.FirstSeen = now
			q.ChurnG = t.reg.Gauge("sslic_quality_stream_churn",
				"Latest inter-frame label churn ratio, by stream.", lbl)
			q.EmptyG = t.reg.Gauge("sslic_quality_stream_empty_clusters",
				"Latest empty-cluster count, by stream.", lbl)
			q.ResidualG = t.reg.Gauge("sslic_quality_stream_residual",
				"Latest final center residual, by stream.", lbl)
			q.BoundaryG = t.reg.Gauge("sslic_quality_stream_boundary_density",
				"Latest boundary-pixel density, by stream.", lbl)
		}
		q.LastSeen = now
		q.Frames++
		if s.Warm {
			q.WarmFrames++
		}
		// Only a named stream keeps a delta base; "" and "tenant/"
		// key requests without one.
		if i := strings.LastIndexByte(s.Stream, '/'); s.Stream[i+1:] != "" {
			if s.DeltaBase {
				q.DeltaHits++
			} else {
				q.DeltaMisses++
			}
		}
		q.Churn[q.N%stream.RingLen] = s.Churn
		q.Levels[q.N%stream.RingLen] = int32(s.Level)
		q.N++
		if s.TraceID != "" {
			q.Traces[q.NTraces%len(q.Traces)] = s.TraceID
			q.NTraces++
		}
		q.Collapsed = bad
		q.Last = s

		if s.Churn >= 0 {
			q.ChurnG.Set(s.Churn)
		}
		q.EmptyG.Set(float64(s.EmptyClusters))
		q.ResidualG.Set(s.Residual)
		q.BoundaryG.Set(s.BoundaryDensity)
	})
}

// Totals are the tracker's cumulative frame counts and churn
// histogram.
type Totals struct {
	// Frames counts observed frames; EmptyFrames those with at least
	// one empty cluster; Collapsed those that tripped a floor threshold.
	Frames, EmptyFrames, Collapsed float64
	// Churn is the inter-frame label-churn histogram.
	Churn telemetry.HistogramSnapshot
}

// Totals reads the cumulative series a control tick differences.
func (t *Tracker) Totals() Totals {
	return Totals{
		Frames:      t.frames.Value(),
		EmptyFrames: t.emptyFr.Value(),
		Collapsed:   t.collapsed.Value(),
		Churn:       t.churnHist.Snapshot(),
	}
}
