package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sslic/internal/degrade"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/quality"
	"sslic/internal/telemetry"
	"sslic/internal/tenant"
	"sslic/internal/wire"
)

// request is the record of one /v1/segment request. handleSegment fills
// it as the request passes each layer; stamp derives the response
// headers from it before the first body byte, and finish the counters,
// per-stream series, quality observation and trace instants after the
// handler returns. It lives in the middleware's statusRecorder, so it
// costs no allocation of its own.
type request struct {
	tn    *tenant.Tenant // nil in single-tenant mode
	level degrade.Level  // effective (class-biased) degrade level
	tr    *telemetry.Trace
	cost  *telemetry.Cost
	brk   *breaker // nil when breakers are disabled
	opts  options
	key   string // stream table key

	// A refused request has a reason, and err when an error caused it.
	reason string
	err    error

	// A served frame has its result and quality sample.
	res    *pipeline.JobResult
	sample quality.Sample

	snap telemetry.CostSnapshot // the ledger as stamped on the headers
}

// refusals gives each refusal reason (the sslic_server_rejected_total
// label) its status and Retry-After base in seconds; 0 sends none.
var refusals = map[string]struct{ code, retry int }{
	"draining":          {http.StatusServiceUnavailable, 5},
	"shed":              {http.StatusServiceUnavailable, 1},
	"breaker":           {http.StatusServiceUnavailable, 1},
	"bad_request":       {http.StatusBadRequest, 0},
	"too_large":         {http.StatusRequestEntityTooLarge, 0},
	"fault":             {http.StatusServiceUnavailable, 1},
	"saturated":         {http.StatusTooManyRequests, 1},
	"stuck":             {http.StatusGatewayTimeout, 0},
	"backend_panic":     {http.StatusServiceUnavailable, 1},
	"deadline":          {http.StatusGatewayTimeout, 0},
	"canceled":          {499, 0}, // client closed the request; nothing reads the body
	"internal":          {http.StatusInternalServerError, 0},
	"rate_limited":      {http.StatusTooManyRequests, 1}, // sent as the bucket's refill time
	"tenant_inflight":   {http.StatusTooManyRequests, 1},
	"tenant_queue_full": {http.StatusTooManyRequests, 1},
}

// refusalCauses maps the errors of admission, decode and the pool onto
// refusal reasons, first match winning. An injected fault is a backend
// problem, not a bad request: 503 keeps chaos responses retriable.
var refusalCauses = []struct {
	err    error
	reason string
}{
	{imgio.ErrImageTooLarge, "too_large"},
	{pipeline.ErrSaturated, "saturated"},
	{pipeline.ErrPoolClosed, "draining"},
	{pipeline.ErrWorkerStuck, "stuck"},
	{pipeline.ErrSegmentPanic, "backend_panic"},
	{tenant.ErrRateLimited, "rate_limited"},
	{tenant.ErrInFlightLimit, "tenant_inflight"},
	{tenant.ErrQueueFull, "tenant_queue_full"},
	{context.DeadlineExceeded, "deadline"},
	{context.Canceled, "canceled"},
	{faults.ErrInjected, "fault"},
}

// reasonFor classifies an admission, decode or pool error; def is the
// stage's reason for an error no cause matches.
func reasonFor(err error, def string) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return "too_large"
	}
	for _, c := range refusalCauses {
		if errors.Is(err, c.err) {
			return c.reason
		}
	}
	return def
}

// refuse answers the request with reason's status. It marks the trace
// failed, forcing tail retention: refused flights are the interesting
// ones. A backend panic is charged to the breaker here, before a
// half-open probe's deferred release, so the panicking probe re-opens
// the circuit without letting another probe in first.
func (s *Server) refuse(w http.ResponseWriter, rq *request, reason string, err error) {
	rq.reason, rq.err = reason, err
	if reason == "backend_panic" {
		rq.brk.recordPanic()
	}
	msg := reason
	if err != nil {
		msg += ": " + err.Error()
	}
	code := refusals[reason].code
	rq.tr.SetError(fmt.Errorf("%s (HTTP %d)", msg, code))
	http.Error(w, msg, code)
}

// stamp writes every X-* header and Retry-After of a /v1/segment
// response from its record. statusRecorder runs it once, before the
// first body byte, so the headers carry the cost ledger as it stands
// then: whatever a refused request cost so far, or a served frame's
// closed ledger (encode time is charged after the headers and reaches
// only the trace and the registry). Zero cost fields are omitted.
func (s *Server) stamp(h http.Header, rq *request) {
	h.Set("X-Degradation-Level", strconv.Itoa(int(rq.level)))
	if rq.tn != nil {
		h.Set("X-Tenant", rq.tn.ID())
		h.Set("X-Tenant-Class", rq.tn.Class().String())
	}
	if id := rq.tr.ID(); id != "" {
		h.Set("X-Trace-Id", id)
	}
	rq.snap = rq.cost.Snapshot()
	set := func(name string, v int64) {
		if v > 0 {
			h.Set(name, strconv.FormatInt(v, 10))
		}
	}
	set("X-Cost-Cpu-Ns", rq.snap.CPUNs)
	set("X-Cost-Alloc-Bytes", rq.snap.AllocBytes)
	set("X-Cost-Queue-Ns", rq.snap.QueueWaitNs)
	set("X-Cost-Decode-Ns", rq.snap.DecodeNs)
	if rq.snap.EstPJ > 0 {
		h.Set("X-Cost-Est-Pj", strconv.FormatFloat(rq.snap.EstPJ, 'f', 0, 64))
	}
	if base := refusals[rq.reason].retry; base > 0 {
		h.Set("Retry-After", strconv.Itoa(s.retryAfter(base, rq.err)))
	}
	if rq.res == nil {
		return
	}
	q := rq.sample
	h.Set("X-Sslic-Warm", strconv.FormatBool(q.Warm))
	h.Set("X-Sslic-Seconds", strconv.FormatFloat(rq.res.Latency.Seconds(), 'f', 6, 64))
	if q.Churn >= 0 {
		h.Set("X-Quality-Churn", strconv.FormatFloat(q.Churn, 'f', 6, 64))
	}
	h.Set("X-Quality-Empty-Clusters", strconv.Itoa(q.EmptyClusters))
	h.Set("X-Quality-Boundary-Density", strconv.FormatFloat(q.BoundaryDensity, 'f', 6, 64))
	h.Set("X-Quality-Residual", strconv.FormatFloat(q.Residual, 'g', -1, 64))
	if wf, ok := wire.ParseFormat(q.WireFormat); ok {
		h.Set("X-Wire-Format", q.WireFormat)
		if wf == wire.Delta {
			// The base actually encoded against: "prev" decodes against
			// the client's previous response on this stream.
			base := "empty"
			if q.DeltaBase {
				base = "prev"
			}
			h.Set("X-Wire-Base", base)
		}
	}
}

// retryAfter is the Retry-After hint in seconds, clamped to [1, 30]: a
// rate-limited tenant's exact token refill time, otherwise an adaptive
// hint — the reason's base, raised by the current degrade level and
// pool queue fill, plus a deterministic 0-2s jitter from a rotating
// sequence so a burst of synchronized clients gets spread over three
// retry instants instead of re-converging into the same thundering herd.
func (s *Server) retryAfter(base int, cause error) int {
	var rl *tenant.RateLimitedError
	if errors.As(cause, &rl) {
		return min(int(rl.RetryAfter/time.Second)+1, 30)
	}
	secs := base + int(s.degrade.Level()) + int(s.queueFill()*3+0.5)
	secs += int(s.retrySeq.Add(1) % 3)
	return min(max(secs, 1), 30)
}

// finish closes a /v1/segment record after the handler has returned
// with status code: the availability counters the SLO engine reads
// (shed 429s count as failures — from the client's side the service
// was unavailable), the rejection counter, the request's breaker for a
// panic the middleware recovered, and for a served frame the cost
// totals, the per-stream cost series under the stream's table label,
// the quality tracker and the trace's "cost" and "quality" instants;
// then it closes the trace. Only /v1/segment records are finished, so a
// bug in /metrics or /healthz never fast-fails segmentation traffic.
func (s *Server) finish(rq *request, code int, panicked bool) {
	s.costs.reqTotal.Inc()
	if code >= 500 || code == http.StatusTooManyRequests {
		s.costs.reqFailed.Inc()
	}
	if rq.reason != "" {
		s.rejected[rq.reason].Inc()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Debug("request rejected", "reason", rq.reason, "code", code)
		}
	}
	if panicked {
		rq.brk.recordPanic()
	}
	if rq.res != nil {
		snap := rq.snap
		s.costs.frames.Inc()
		s.costs.estPJ.Add(snap.EstPJ)
		lbl := telemetry.Label{Name: "stream", Value: s.streams.Label(rq.key)}
		reg := s.cfg.Registry
		reg.Counter("sslic_server_stream_cost_cpu_seconds_total",
			"CPU time charged to requests, by stream.", lbl).Add(float64(snap.CPUNs) / 1e9)
		reg.Counter("sslic_server_stream_cost_alloc_bytes_total",
			"Buffer bytes charged to requests, by stream.", lbl).Add(float64(snap.AllocBytes))
		reg.Counter("sslic_server_stream_cost_est_pj_total",
			"Estimated accelerator energy charged to requests, by stream.", lbl).Add(snap.EstPJ)
		reg.Counter("sslic_server_stream_cost_frames_total",
			"Frames with a closed cost ledger, by stream.", lbl).Inc()
		s.quality.Observe(rq.sample)
		if rq.tr != nil {
			rq.tr.Instant("cost", "server", map[string]any{
				"cpu_ns":        snap.CPUNs,
				"alloc_bytes":   snap.AllocBytes,
				"queue_wait_ns": snap.QueueWaitNs,
				"decode_ns":     snap.DecodeNs,
				"segment_ns":    snap.SegmentNs,
				"encode_ns":     snap.EncodeNs,
				"est_pj":        snap.EstPJ,
			})
			rq.tr.Instant("quality", "server", map[string]any{
				"churn":            rq.sample.Churn,
				"empty_clusters":   rq.sample.EmptyClusters,
				"cluster_size_cv":  rq.sample.ClusterSizeCV,
				"boundary_density": rq.sample.BoundaryDensity,
				"residual":         rq.sample.Residual,
				"residual_decay":   rq.sample.ResidualDecay,
				"converged":        rq.sample.Converged,
			})
		}
	}
	s.endTrace(rq.tr)
}

// served records a segmented frame: its result and the quality sample
// the tracker will fold in. The churn base is the stream's slbl-delta
// base, taken out by the caller before the response is written — the
// same buffer the delta wire format encodes against, so churn costs one
// extra O(N) compare and no allocation.
func (rq *request) served(res *pipeline.JobResult, im *imgio.Image, base *imgio.LabelMap) {
	st := res.Result.Stats
	pixels := im.W * im.H
	churn := -1.0
	if base != nil {
		if changed, ok := quality.LabelChurn(res.Result.Labels, base); ok {
			churn = float64(changed) / float64(pixels)
		}
	}
	rq.res = res
	rq.sample = quality.Sample{
		Stream:          rq.key,
		TraceID:         rq.tr.ID(),
		W:               im.W,
		H:               im.H,
		K:               rq.opts.K,
		Level:           int(rq.level),
		Warm:            res.Warm,
		WireFormat:      rq.opts.Format,
		DeltaBase:       base != nil,
		Churn:           churn,
		EmptyClusters:   st.EmptyClusters,
		Clusters:        len(res.Result.Centers),
		ClusterSizeCV:   st.ClusterSizeCV,
		BoundaryDensity: float64(st.BoundaryPixels) / float64(pixels),
		Residual:        st.FinalResidual(),
		ResidualDecay:   st.ResidualDecay(),
		Converged:       st.Converged,
		Passes:          st.SubsetPasses,
	}
}
