package server

import (
	"sslic/internal/degrade"
	"sslic/internal/quality"
	"sslic/internal/slo"
	"sslic/internal/telemetry"
)

// totals is one reading of every cumulative series the control tick
// differences.
type totals struct {
	latency             telemetry.HistogramSnapshot // segment request seconds
	requests, failed    float64
	frames, pj          float64 // closed cost ledgers and their energy
	deadline, saturated float64 // rejected_total by reason
	quality             quality.Totals
}

// readTotals reads each series once, through the handles New kept.
func (s *Server) readTotals() totals {
	return totals{
		latency:   s.latency.Snapshot(),
		requests:  s.costs.reqTotal.Value(),
		failed:    s.costs.reqFailed.Value(),
		frames:    s.costs.frames.Value(),
		pj:        s.costs.estPJ.Value(),
		deadline:  s.rejected["deadline"].Value(),
		saturated: s.rejected["saturated"].Value(),
		quality:   s.quality.Totals(),
	}
}

// window derives one tick's controller inputs from the previous and
// the current reading: every degrade signal except QueueFill and
// BurnRate, and the SLO engine's window. The quality floor is observed
// only when a frame landed, and collapses when most of those frames
// tripped a floor threshold.
func window(prev, cur totals) (degrade.Signals, slo.Window) {
	frames := cur.quality.Frames - prev.quality.Frames
	collapsed := cur.quality.Collapsed - prev.quality.Collapsed
	sig := degrade.Signals{
		DeadlineMisses:   int(cur.deadline - prev.deadline),
		Rejected:         int(cur.saturated - prev.saturated),
		QualityObserved:  frames > 0,
		QualityCollapsed: frames > 0 && 2*collapsed > frames,
	}
	return sig, slo.Window{
		Latency:       cur.latency.Sub(prev.latency),
		Requests:      cur.requests - prev.requests,
		Failed:        cur.failed - prev.failed,
		Frames:        cur.frames - prev.frames,
		PJ:            cur.pj - prev.pj,
		Churn:         cur.quality.Churn.Sub(prev.quality.Churn),
		QualityFrames: frames,
		EmptyFrames:   cur.quality.EmptyFrames - prev.quality.EmptyFrames,
	}
}

// SampleSignals closes one control window and returns the signals the
// background loop feeds the controller; tests that drive the
// controller by hand call it directly. It reads every series once,
// ticks the SLO engine with the window (its maximum fast burn rides
// along as BurnRate), reads the queue fill and samples the runtime
// metrics. The first window only seeds the engine, so traffic from
// before the first tick is not charged to the budgets.
func (s *Server) SampleSignals() degrade.Signals {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	cur := s.readTotals()
	sig, win := window(s.last, cur)
	if s.seeded {
		sig.BurnRate = s.slo.Tick(win)
	}
	s.last, s.seeded = cur, true
	sig.QueueFill = s.queueFill()
	s.runtime.Sample()
	return sig
}

// queueFill is the pool's queue fill fraction in [0, 1].
func (s *Server) queueFill() float64 {
	if cap := s.pool.QueueCapacity(); cap > 0 {
		return float64(s.pool.Queued()) / float64(cap)
	}
	return 0
}
