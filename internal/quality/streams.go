package quality

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"sslic/internal/stream"
)

// StreamStatus is one stream's row in the /debug/streams report.
type StreamStatus struct {
	Stream     string  `json:"stream"`
	Frames     uint64  `json:"frames"`
	WarmFrames uint64  `json:"warm_frames"`
	AgeSec     float64 `json:"age_seconds"`
	IdleSec    float64 `json:"idle_seconds"`

	Width  int `json:"width"`
	Height int `json:"height"`
	K      int `json:"k"`

	Level        int     `json:"level"`
	LevelHistory []int32 `json:"level_history"`

	WireFormat  string  `json:"wire_format,omitempty"`
	DeltaHits   uint64  `json:"delta_hits"`
	DeltaMisses uint64  `json:"delta_misses"`
	DeltaRatio  float64 `json:"delta_hit_ratio"`

	LastTraces []string `json:"last_traces,omitempty"`

	Quality StreamQuality `json:"quality"`
}

// StreamQuality is the quality-proxy block of a stream row: the latest
// frame's values plus the recent churn trend.
type StreamQuality struct {
	Churn           float64   `json:"churn"`
	ChurnTrend      []float64 `json:"churn_trend,omitempty"`
	EmptyClusters   int       `json:"empty_clusters"`
	Clusters        int       `json:"clusters"`
	ClusterSizeCV   float64   `json:"cluster_size_cv"`
	BoundaryDensity float64   `json:"boundary_density"`
	Residual        float64   `json:"residual"`
	ResidualDecay   float64   `json:"residual_decay"`
	Converged       bool      `json:"converged"`
	Passes          int       `json:"passes"`
	Collapsed       bool      `json:"collapsed"`
}

// FloorStatus reports the degrade controller's quality floor.
type FloorStatus struct {
	Pinned bool `json:"pinned"`
	Level  int  `json:"level"`
}

// Status is the whole /debug/streams document.
type Status struct {
	Streams []StreamStatus `json:"streams"`
	// Floor is present when a degrade controller is wired in.
	Floor *FloorStatus `json:"floor,omitempty"`
	// Totals across all frames ever observed.
	Frames          float64 `json:"frames_total"`
	EmptyFrames     float64 `json:"empty_cluster_frames_total"`
	CollapsedFrames float64 `json:"collapsed_frames_total"`
}

// Snapshot assembles the introspection document: one row per live
// stream (sorted by ID for stable output), the degrade floor, and the
// global counters.
func (t *Tracker) Snapshot() Status {
	now := time.Now()
	rows := []StreamStatus{}
	for _, q := range t.cfg.Streams.Records() {
		if q.Frames == 0 {
			continue // warm centers stored, no frame observed yet
		}
		s := q.Last
		row := StreamStatus{
			Stream:     q.Key,
			Frames:     q.Frames,
			WarmFrames: q.WarmFrames,
			AgeSec:     now.Sub(q.FirstSeen).Seconds(),
			IdleSec:    now.Sub(q.LastSeen).Seconds(),
			Width:      s.W,
			Height:     s.H,
			K:          s.K,
			Level:      s.Level,
			WireFormat: s.WireFormat,
		}
		row.DeltaHits, row.DeltaMisses = q.DeltaHits, q.DeltaMisses
		if n := q.DeltaHits + q.DeltaMisses; n > 0 {
			row.DeltaRatio = float64(q.DeltaHits) / float64(n)
		}
		for i := max(0, q.N-stream.RingLen); i < q.N; i++ {
			row.LevelHistory = append(row.LevelHistory, q.Levels[i%stream.RingLen])
			row.Quality.ChurnTrend = append(row.Quality.ChurnTrend, q.Churn[i%stream.RingLen])
		}
		for i := max(0, q.NTraces-len(q.Traces)); i < q.NTraces; i++ {
			row.LastTraces = append(row.LastTraces, q.Traces[i%len(q.Traces)])
		}
		row.Quality.Churn = s.Churn
		row.Quality.EmptyClusters = s.EmptyClusters
		row.Quality.Clusters = s.Clusters
		row.Quality.ClusterSizeCV = s.ClusterSizeCV
		row.Quality.BoundaryDensity = s.BoundaryDensity
		row.Quality.Residual = s.Residual
		row.Quality.ResidualDecay = s.ResidualDecay
		row.Quality.Converged = s.Converged
		row.Quality.Passes = s.Passes
		row.Quality.Collapsed = q.Collapsed
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Stream < rows[j].Stream })

	out := Status{
		Streams:         rows,
		Frames:          t.frames.Value(),
		EmptyFrames:     t.emptyFr.Value(),
		CollapsedFrames: t.collapsed.Value(),
	}
	if t.cfg.FloorFunc != nil {
		level, pinned := t.cfg.FloorFunc()
		out.Floor = &FloorStatus{Pinned: pinned, Level: level}
	}
	return out
}

// Handler serves the introspection document as JSON at /debug/streams.
func (t *Tracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Snapshot())
	})
}
