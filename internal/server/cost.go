package server

import (
	"context"
	"net/http"
	"strconv"

	"sslic/internal/hw"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// costAccountant folds finished request ledgers into the service-wide
// cost series and estimates per-frame accelerator energy through the hw
// analytic model. It also owns the cumulative counters the SLO engine
// differentiates: total/failed responses (availability) and
// frames/picojoules (energy budget).
type costAccountant struct {
	reg *telemetry.Registry
	hwm *hw.Metrics

	reqTotal  *telemetry.Counter
	reqFailed *telemetry.Counter
	frames    *telemetry.Counter
	estPJ     *telemetry.Counter
}

func newCostAccountant(reg *telemetry.Registry) *costAccountant {
	return &costAccountant{
		reg: reg,
		hwm: hw.NewMetrics(reg),
		reqTotal: reg.Counter("sslic_server_requests_total",
			"Segment requests answered (any status)."),
		reqFailed: reg.Counter("sslic_server_requests_failed_total",
			"Segment requests answered with a failure status (5xx or shed 429)."),
		frames: reg.Counter("sslic_server_cost_frames_total",
			"Frames with a closed cost ledger."),
		estPJ: reg.Counter("sslic_server_cost_est_pj_total",
			"Estimated accelerator energy charged to requests, picojoules."),
	}
}

// observeResponse feeds the availability counters (the SLO engine's
// Requests source). Shed 429s count as failures: from the client's
// side, the service was unavailable for that request.
func (a *costAccountant) observeResponse(code int) {
	a.reqTotal.Inc()
	if code >= 500 || code == http.StatusTooManyRequests {
		a.reqFailed.Inc()
	}
}

// requestCounts is the SLO engine's cumulative availability source.
func (a *costAccountant) requestCounts() (total, bad float64) {
	return a.reqTotal.Value(), a.reqFailed.Value()
}

// energyCounts is the SLO engine's cumulative energy source.
func (a *costAccountant) energyCounts() (frames, pj float64) {
	return a.frames.Value(), a.estPJ.Value()
}

// chargeEnergy runs the hw analytic model for the request's actual
// workload shape — resolution, superpixel count, subsample ratio, and
// the subset passes the run really executed — and charges the estimate
// to the ledger, the energy accumulator (per-component, via hw.Metrics)
// and the frame's trace. Model failure (a workload outside the model's
// domain) skips the charge rather than failing the request.
func (a *costAccountant) chargeEnergy(cost *telemetry.Cost, im *imgio.Image,
	params sslic.Params, res *pipeline.JobResult, tr *telemetry.Trace) {
	hwCfg := hw.DefaultConfig()
	hwCfg.Width, hwCfg.Height, hwCfg.K = im.W, im.H, params.K
	hwCfg.SubsampleRatio = params.SubsampleRatio
	hwCfg.Passes = res.Result.Stats.SubsetPasses
	if hwCfg.Passes <= 0 { // warm-started frame that converged instantly
		hwCfg.Passes = 1
	}
	report, err := hw.Simulate(hwCfg)
	if err != nil {
		return
	}
	a.hwm.ObserveReportCtx(telemetry.WithTrace(context.Background(), tr), report)
	cost.AddEnergyPJ(report.EnergyPerFrame * 1e12)
}

// finish closes a successful request's ledger: service-wide totals,
// per-stream series under the stream's table label (bounded by the
// table's label budget), and a "cost" instant on the trace so the
// ledger is readable from /debug/trace?id= next to the timeline it
// prices.
func (a *costAccountant) finish(cost *telemetry.Cost, label string, tr *telemetry.Trace) telemetry.CostSnapshot {
	snap := cost.Snapshot()
	a.frames.Inc()
	a.estPJ.Add(snap.EstPJ)

	lbl := telemetry.Label{Name: "stream", Value: label}
	a.reg.Counter("sslic_server_stream_cost_cpu_seconds_total",
		"CPU time charged to requests, by stream.", lbl).Add(float64(snap.CPUNs) / 1e9)
	a.reg.Counter("sslic_server_stream_cost_alloc_bytes_total",
		"Buffer bytes charged to requests, by stream.", lbl).Add(float64(snap.AllocBytes))
	a.reg.Counter("sslic_server_stream_cost_est_pj_total",
		"Estimated accelerator energy charged to requests, by stream.", lbl).Add(snap.EstPJ)
	a.reg.Counter("sslic_server_stream_cost_frames_total",
		"Frames with a closed cost ledger, by stream.", lbl).Inc()

	tr.Instant("cost", "server", map[string]any{
		"cpu_ns":        snap.CPUNs,
		"alloc_bytes":   snap.AllocBytes,
		"queue_wait_ns": snap.QueueWaitNs,
		"decode_ns":     snap.DecodeNs,
		"segment_ns":    snap.SegmentNs,
		"encode_ns":     snap.EncodeNs,
		"est_pj":        snap.EstPJ,
	})
	return snap
}

// stampCostHeaders writes the ledger's computable fields as X-Cost-*
// response headers. Zero fields are omitted — an early-rejected request
// has no segmentation cost to report, but whatever it did cost (decode
// time, queue wait) still reaches the client.
func stampCostHeaders(h http.Header, snap telemetry.CostSnapshot) {
	set := func(name string, v int64) {
		if v > 0 {
			h.Set(name, strconv.FormatInt(v, 10))
		}
	}
	set("X-Cost-Cpu-Ns", snap.CPUNs)
	set("X-Cost-Alloc-Bytes", snap.AllocBytes)
	set("X-Cost-Queue-Ns", snap.QueueWaitNs)
	set("X-Cost-Decode-Ns", snap.DecodeNs)
	if snap.EstPJ > 0 {
		h.Set("X-Cost-Est-Pj", strconv.FormatFloat(snap.EstPJ, 'f', 0, 64))
	}
}
