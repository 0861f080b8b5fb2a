package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"sslic/internal/telemetry"
)

// StageStats is a snapshot of one stage's counters.
type StageStats struct {
	// FramesIn counts frames the stage started processing; FramesOut
	// counts frames it finished and handed downstream. In-flight work is
	// the difference.
	FramesIn, FramesOut int64
	// Completed counts frames with a recorded service time — the sample
	// count behind the latency fields, so a consumer can tell "no frames
	// yet" (Completed == 0, latencies zero) from "very fast frames"
	// (Completed > 0, latencies legitimately near zero).
	Completed int64
	// QueueHighWater is the deepest the stage's queue ever got — the
	// backpressure indicator: the in-order delivery queue for source and
	// sink, the pool's admission queues for segment.
	QueueHighWater int
	// LatencyMin/Mean/Max summarize per-frame service time. Zero when no
	// frame completed.
	LatencyMin, LatencyMean, LatencyMax time.Duration
}

// String formats the stage for log lines.
func (s StageStats) String() string {
	return fmt.Sprintf("in=%d out=%d qhw=%d lat=%s/%s/%s",
		s.FramesIn, s.FramesOut, s.QueueHighWater,
		s.LatencyMin.Round(time.Microsecond),
		s.LatencyMean.Round(time.Microsecond),
		s.LatencyMax.Round(time.Microsecond))
}

// Stats is a consistent-enough snapshot of the whole pipeline, safe to
// call concurrently with Run.
type Stats struct {
	Source, Segment, Sink StageStats
	// ReorderHighWater is the most frames ever held awaiting in-order
	// delivery (rendered, not yet delivered); QueueDepth bounds it.
	ReorderHighWater int
	// Delivered counts results the sink accepted; Dropped counts frames
	// recycled during a cancellation drain.
	Delivered, Dropped int64
}

// stageMetrics is one stage's registry-backed instrumentation: counters
// for frames in/out, a high-water gauge for the bounded queue, and a
// span family whose histogram carries the service-time distribution.
// All writes are lock-free atomics; Stats is a thin view over the same
// series a /metrics scrape reads.
type stageMetrics struct {
	in, out   *telemetry.Counter
	queueHW   *telemetry.Gauge
	queueWait *telemetry.Histogram
	stage     string
	spans     *telemetry.Spans
}

func newStageMetrics(reg *telemetry.Registry, log *slog.Logger, stage string) *stageMetrics {
	lbl := telemetry.Label{Name: "stage", Value: stage}
	return &stageMetrics{
		in:      reg.Counter("sslic_pipeline_frames_in_total", "Frames a stage started processing.", lbl),
		out:     reg.Counter("sslic_pipeline_frames_out_total", "Frames a stage finished and handed downstream.", lbl),
		queueHW: reg.Gauge("sslic_pipeline_queue_high_water", "Deepest the stage's bounded queue ever got.", lbl),
		queueWait: reg.Histogram("sslic_pipeline_queue_wait_seconds",
			"Time a frame spent queued before the stage picked it up.",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}, lbl),
		stage: stage,
		spans: telemetry.NewSpans(reg, "sslic_pipeline_stage", "Per-frame stage service time.", nil, log, lbl),
	}
}

// arrive counts a frame entering the stage and samples the queue depth.
func (m *stageMetrics) arrive(queueLen int) {
	m.in.Inc()
	m.queueHW.SetMax(float64(queueLen))
}

// waited records how long a frame sat in the stage's incoming queue —
// into the queue-wait histogram and, for traced frames, as a
// queue_wait interval on the frame's timeline, so "slow frame" splits
// into "waited" vs "worked" after the fact.
func (m *stageMetrics) waited(tr *telemetry.Trace, enqueued time.Time) {
	wait := time.Since(enqueued)
	m.queueWait.Observe(wait.Seconds())
	if tr != nil {
		tr.Emit("queue_wait", "pipeline:"+m.stage, enqueued, wait, nil)
	}
}

// beginCtx opens the stage's service-time span for one frame, bound to
// the context's trace. End it when the work succeeds, Abort it on the
// error path.
func (m *stageMetrics) beginCtx(ctx context.Context, attrs ...any) telemetry.Span {
	return m.spans.StartCtx(ctx, attrs...)
}

// sent counts a frame handed downstream and samples the queue depth.
func (m *stageMetrics) sent(queueLen int) {
	m.out.Inc()
	m.queueHW.SetMax(float64(queueLen))
}

func (m *stageMetrics) snapshot() StageStats {
	s := stageStats(m.in.Value(), m.spans.Snapshot(), m.queueHW.Value())
	s.FramesOut = int64(m.out.Value())
	return s
}

// segmentStats views the pool's series as the pipeline's segment stage:
// admitted jobs in, completed job spans out.
func (p *Pool) segmentStats() StageStats {
	return stageStats(p.admitted.Value(), p.spans.Snapshot(), p.queueHW.Value())
}

func stageStats(in float64, h telemetry.HistogramSnapshot, queueHW float64) StageStats {
	s := StageStats{
		FramesIn:       int64(in),
		FramesOut:      int64(h.Count),
		Completed:      int64(h.Count),
		QueueHighWater: int(queueHW),
	}
	if h.Count > 0 {
		s.LatencyMin = secondsToDuration(h.Min)
		s.LatencyMean = secondsToDuration(h.Mean())
		s.LatencyMax = secondsToDuration(h.Max)
	}
	return s
}

// secondsToDuration converts a histogram's float seconds back to a
// Duration, rounding to the nanosecond.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// Stats returns a snapshot of all per-stage counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Source:           p.srcStats.snapshot(),
		Segment:          p.pool.segmentStats(),
		Sink:             p.snkStats.snapshot(),
		ReorderHighWater: int(p.reorderHW.Value()),
		Delivered:        int64(p.delivered.Value()),
		Dropped:          int64(p.dropped.Value()),
	}
}
