package stream_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"sslic/internal/quality"
	"sslic/internal/stream"
	"sslic/internal/telemetry"
)

// These rule tests drive the table through its two label consumers:
// the quality tracker (records and gauges) and the cost accountant
// (Label).

func sampleFor(key string, churn float64) quality.Sample {
	return quality.Sample{
		Stream: key, TraceID: "t-" + key,
		W: 8, H: 8, K: 4, Level: 1, Warm: true,
		WireFormat: "slbl-delta", DeltaBase: churn >= 0,
		Churn: churn, EmptyClusters: 1, Clusters: 4,
		ClusterSizeCV: 0.25, BoundaryDensity: 0.5,
		Residual: 0.01, ResidualDecay: 0.1,
		Converged: true, Passes: 6,
	}
}

func prometheusText(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTrackerEviction(t *testing.T) {
	tr := quality.NewTracker(quality.Config{Streams: stream.New(stream.Config{MaxStreams: 2})})
	tr.Observe(sampleFor("s1", 0.1))
	tr.Observe(sampleFor("s2", 0.1))
	tr.Observe(sampleFor("s3", 0.1)) // evicts the least-recently-seen (s1)
	st := tr.Snapshot()
	if len(st.Streams) != 2 {
		t.Fatalf("got %d rows, want 2 after eviction", len(st.Streams))
	}
	for _, row := range st.Streams {
		if row.Stream == "s1" {
			t.Fatal("s1 should have been evicted")
		}
	}
	if st.Frames != 3 {
		t.Fatalf("global frame counter = %g, want 3 (eviction must not reset totals)", st.Frames)
	}
}

func TestStreamLabelCapping(t *testing.T) {
	reg := telemetry.NewRegistry()
	tb := stream.New(stream.Config{MaxStreams: 2})
	stream.SetBudget(tb, 2)
	tr := quality.NewTracker(quality.Config{Registry: reg, Streams: tb})
	tr.Observe(sampleFor("", 0.1))   // anonymous → _anon (not counted against the mint cap)
	tr.Observe(sampleFor("s1", 0.1)) // minted
	tr.Observe(sampleFor("s2", 0.1)) // minted (second of two)
	tr.Observe(sampleFor("s3", 0.1)) // past the mint cap → _other
	text := prometheusText(t, reg)
	if !strings.Contains(text, `sslic_quality_stream_churn{stream="_anon"}`) {
		t.Fatal("anonymous stream series missing")
	}
	if !strings.Contains(text, `sslic_quality_stream_churn{stream="_other"}`) {
		t.Fatal("overflow stream series missing")
	}
	if !strings.Contains(text, `sslic_quality_stream_churn{stream="s1"}`) {
		t.Fatal("stream s1 should have minted its own series under the cap")
	}
	if strings.Contains(text, `sslic_quality_stream_churn{stream="s3"}`) {
		t.Fatal("stream s3 minted its own series past the cap")
	}
}

// TestStreamLabelTenantShare: with tenancy on, each tenant gets its
// own fair slice of the label budget — one greedy tenant overflows
// into its own <tenant>/_other, never into another tenant's slice or
// the global pool.
func TestStreamLabelTenantShare(t *testing.T) {
	reg := telemetry.NewRegistry()
	// 16 tenants share the 32 labels: a slice of 2 each.
	tb := stream.New(stream.Config{MaxStreams: 8})
	tb.SetTenants(16)
	tr := quality.NewTracker(quality.Config{Registry: reg, Streams: tb})
	// Mirror the server contract: the key is tenant-namespaced, and a
	// keyless request under a tenant is "tenant/".
	post := func(tenant, stream string) { tr.Observe(sampleFor(tenant+"/"+stream, 0.1)) }
	post("acme", "s0") // minted: acme/s0
	post("acme", "s1") // minted: acme/s1 (slice of 2 exhausted)
	post("acme", "s2") // over acme's slice → acme/_other
	post("beta", "s2") // beta's slice untouched by acme → beta/s2
	post("acme", "")   // keyless stream under a tenant → acme/_anon

	text := prometheusText(t, reg)
	for _, want := range []string{
		`sslic_quality_stream_churn{stream="acme/s0"}`,
		`sslic_quality_stream_churn{stream="acme/s1"}`,
		`sslic_quality_stream_churn{stream="acme/_other"}`,
		`sslic_quality_stream_churn{stream="beta/s2"}`,
		`sslic_quality_stream_churn{stream="acme/_anon"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing series %s", want)
		}
	}
	if strings.Contains(text, `sslic_quality_stream_churn{stream="acme/s2"}`) {
		t.Fatal("acme/s2 minted past acme's tenant slice")
	}
}

// TestStreamCostSeriesCapped guards the per-stream cardinality bound:
// minting unlimited stream IDs must not grow the registry without
// bound.
func TestStreamCostSeriesCapped(t *testing.T) {
	a := stream.New(stream.Config{})
	for i := 0; i < stream.Labels; i++ {
		if got := a.Label("s" + strconv.Itoa(i)); got != "s"+strconv.Itoa(i) {
			t.Fatalf("stream %d got label %q before the cap", i, got)
		}
	}
	if got := a.Label("one-too-many"); got != "_other" {
		t.Fatalf("over-cap stream label = %q, want _other", got)
	}
	// Known streams keep their own label; anonymous requests pool.
	if got := a.Label("s0"); got != "s0" {
		t.Fatalf("existing stream relabeled to %q", got)
	}
	if got := a.Label(""); got != "_anon" {
		t.Fatalf("anonymous stream label = %q, want _anon", got)
	}
}

// TestStreamCostSeriesTenantShare guards the multi-tenant budget rule:
// each tenant mints from its own slice and overflows into its own
// "<tenant>/_other", leaving other tenants' slices untouched.
func TestStreamCostSeriesTenantShare(t *testing.T) {
	a := stream.New(stream.Config{})
	a.SetTenants(16) // a slice of 2
	for _, want := range []string{"acme/s0", "acme/s1"} {
		if got := a.Label(want); got != want {
			t.Fatalf("got label %q, want %q", got, want)
		}
	}
	// acme's slice is spent: its new streams overflow into acme/_other…
	if got := a.Label("acme/s2"); got != "acme/_other" {
		t.Fatalf("over-slice label = %q, want acme/_other", got)
	}
	// …while another tenant still mints from its own slice, even for
	// the same bare stream ID.
	if got := a.Label("beta/s2"); got != "beta/s2" {
		t.Fatalf("beta label = %q, want beta/s2", got)
	}
	// Already-minted labels survive the overflow; anonymous requests
	// pool per tenant.
	if got := a.Label("acme/s0"); got != "acme/s0" {
		t.Fatalf("existing label remapped to %q", got)
	}
	if got := a.Label("acme/"); got != "acme/_anon" {
		t.Fatalf("anonymous label = %q, want acme/_anon", got)
	}
}
