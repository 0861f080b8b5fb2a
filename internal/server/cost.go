package server

import (
	"context"

	"sslic/internal/hw"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// costAccountant estimates per-frame accelerator energy through the hw
// analytic model and owns the cumulative counters finish folds request
// records into and the control tick differences: total/failed
// responses (availability) and frames/picojoules (energy budget).
type costAccountant struct {
	hwm *hw.Metrics

	reqTotal  *telemetry.Counter
	reqFailed *telemetry.Counter
	frames    *telemetry.Counter
	estPJ     *telemetry.Counter
}

func newCostAccountant(reg *telemetry.Registry) *costAccountant {
	return &costAccountant{
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
	a.hwm.ObserveReport(telemetry.WithTrace(context.Background(), tr), report)
	cost.AddEnergyPJ(report.EnergyPerFrame * 1e12)
}
