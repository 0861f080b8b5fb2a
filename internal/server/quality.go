package server

import (
	"net/http"
	"strconv"

	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/quality"
	"sslic/internal/telemetry"
)

// observeQuality folds one successful segmentation into the quality
// tracker, stamps the X-Quality-* response headers, and emits the
// trace's "quality" instant. It runs after the cost ledger closes and
// before any body byte, so the headers are still mutable.
//
// The churn base is the stream's slbl-delta base, taken out by the
// caller before the response is written — the same buffer the delta
// wire format would encode against, so churn costs one extra O(N)
// compare and no allocation. key is the request's stream table key,
// which holds the stream's quality record.
func (s *Server) observeQuality(h http.Header, key string, opts options, im *imgio.Image, res *pipeline.JobResult, base *imgio.LabelMap, tr *telemetry.Trace, lvl int) {
	st := res.Result.Stats
	pixels := im.W * im.H
	churn := -1.0
	if base != nil {
		if changed, ok := quality.LabelChurn(res.Result.Labels, base); ok {
			churn = float64(changed) / float64(pixels)
		}
	}
	boundary := 0.0
	if pixels > 0 {
		boundary = float64(st.BoundaryPixels) / float64(pixels)
	}
	sample := quality.Sample{
		Stream:          key,
		TraceID:         tr.ID(),
		W:               im.W,
		H:               im.H,
		K:               opts.K,
		Level:           lvl,
		Warm:            res.Warm,
		WireFormat:      opts.Format,
		DeltaBase:       base != nil,
		Churn:           churn,
		EmptyClusters:   st.EmptyClusters,
		Clusters:        len(res.Result.Centers),
		ClusterSizeCV:   st.ClusterSizeCV,
		BoundaryDensity: boundary,
		Residual:        st.FinalResidual(),
		ResidualDecay:   st.ResidualDecay(),
		Converged:       st.Converged,
		Passes:          st.SubsetPasses,
	}
	s.quality.Observe(sample)

	if churn >= 0 {
		h.Set("X-Quality-Churn", strconv.FormatFloat(churn, 'f', 6, 64))
	}
	h.Set("X-Quality-Empty-Clusters", strconv.Itoa(st.EmptyClusters))
	h.Set("X-Quality-Boundary-Density", strconv.FormatFloat(boundary, 'f', 6, 64))
	h.Set("X-Quality-Residual", strconv.FormatFloat(st.FinalResidual(), 'g', -1, 64))

	tr.Instant("quality", "server", map[string]any{
		"churn":            churn,
		"empty_clusters":   st.EmptyClusters,
		"cluster_size_cv":  st.ClusterSizeCV,
		"boundary_density": boundary,
		"residual":         st.FinalResidual(),
		"residual_decay":   st.ResidualDecay(),
		"converged":        st.Converged,
	})
}

// Quality returns the tracker behind /debug/streams and the quality
// SLO sources, for tests and embedding callers.
func (s *Server) Quality() *quality.Tracker { return s.quality }

// StreamsHandler serves the per-stream quality introspection document.
// Mount it at /debug/streams on a telemetry server.
func (s *Server) StreamsHandler() http.Handler { return s.quality.Handler() }
