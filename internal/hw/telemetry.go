package hw

import (
	"context"

	"sslic/internal/energy"
	"sslic/internal/telemetry"
)

// Metrics is the hardware model's telemetry handle: the paper's
// Table-2/3 quantities as live series. Counters accumulate per observed
// frame (DRAM traffic, scratchpad activity, energy); gauges carry the
// latest model outputs (fps, power). Feed it one Report per frame, from
// Simulate or from a FuncSim run, so a scrape shows the
// accelerator-side cost of the stream so far.
type Metrics struct {
	Frames        *telemetry.Counter
	DRAMBytes     *telemetry.Counter
	DRAMTransfers *telemetry.Counter
	ScratchHits   *telemetry.Counter
	ScratchMisses *telemetry.Counter
	Energy        *energy.Accumulator

	ModelFPS   *telemetry.Gauge
	ModelPower *telemetry.Gauge
}

// NewMetrics registers the hardware-model metrics on the registry,
// including a derived sslic_hw_scratchpad_hit_ratio gauge computed at
// scrape time as hits / (hits + misses).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Frames: reg.Counter("sslic_hw_frames_total",
			"Frames observed by the hardware model."),
		DRAMBytes: reg.Counter("sslic_hw_dram_bytes_total",
			"External memory traffic the model charges (Table 2's MB/iteration, accumulated)."),
		DRAMTransfers: reg.Counter("sslic_hw_dram_transfers_total",
			"External memory bursts (scratchpad fills/drains)."),
		ScratchHits: reg.Counter("sslic_hw_scratchpad_hits_total",
			"On-chip scratchpad port accesses served without a DRAM round trip."),
		ScratchMisses: reg.Counter("sslic_hw_scratchpad_misses_total",
			"Burst transfers to or from external memory."),
		Energy: energy.NewAccumulator(reg),
		ModelFPS: reg.Gauge("sslic_hw_model_fps",
			"Frame rate of the latest simulated configuration."),
		ModelPower: reg.Gauge("sslic_hw_model_power_watts",
			"Power of the latest simulated configuration."),
	}
	reg.GaugeFunc("sslic_hw_scratchpad_hit_ratio",
		"Fraction of scratchpad activity served on-chip: hits / (hits + misses).",
		func() float64 {
			hits, misses := m.ScratchHits.Value(), m.ScratchMisses.Value()
			if hits+misses == 0 {
				return 0
			}
			return hits / (hits + misses)
		})
	return m
}

// ObserveReport charges one priced frame: its DRAM traffic, scratchpad
// activity, and per-component energy (the power breakdown sustained for
// the frame's model time). When the context carries a request/frame
// trace, the charge also lands on its timeline as two instant events —
// "dram_charge" (bytes, bursts) and "scratchpad_charge" (on-chip
// accesses, energy) — so the accelerator model's cost of exactly this
// frame is on the same Perfetto view as its software phases.
func (m *Metrics) ObserveReport(ctx context.Context, r *Report) {
	if m == nil || r == nil {
		return
	}
	m.Frames.Inc()
	m.DRAMBytes.Add(float64(r.TrafficBytes))
	m.DRAMTransfers.Add(float64(r.Transfers))
	m.ScratchHits.Add(float64(r.ScratchReads + r.ScratchWrites))
	m.ScratchMisses.Add(float64(r.Transfers))
	m.chargeBreakdown(r.PowerBreakdown, r.TotalTime)
	m.ModelFPS.Set(r.FPS)
	m.ModelPower.Set(r.PowerWatts)
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Instant("dram_charge", "hw", map[string]any{
			"bytes": r.TrafficBytes, "transfers": r.Transfers,
			"model_fps": r.FPS,
		})
		tr.Instant("scratchpad_charge", "hw", map[string]any{
			"accesses": r.ScratchReads + r.ScratchWrites, "power_watts": r.PowerWatts,
			"model_seconds": r.TotalTime,
		})
	}
}

// chargeBreakdown charges a power breakdown sustained for one frame's
// model time, itemized per component.
func (m *Metrics) chargeBreakdown(p PowerBreakdown, seconds float64) {
	if seconds <= 0 {
		return
	}
	m.Energy.Add("cluster", p.Cluster*seconds)
	m.Energy.Add("colorconv", p.ColorConv*seconds)
	m.Energy.Add("centerupdate", p.CenterUpdate*seconds)
	m.Energy.Add("scratchpads", p.Scratchpads*seconds)
	m.Energy.Add("fsm", p.FSM*seconds)
	m.Energy.Add("dram", p.DRAMInterface*seconds)
}
