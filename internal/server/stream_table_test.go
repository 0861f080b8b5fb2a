package server

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"testing"
)

// seriesByStream maps each stream label of a per-stream series to its
// value in the server's Prometheus exposition.
func seriesByStream(t *testing.T, s *Server, name string) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	re := regexp.MustCompile(name + `\{stream="([^"]*)"\} (\S+)`)
	for _, m := range re.FindAllStringSubmatch(buf.String(), -1) {
		out[m[1]] = m[2]
	}
	return out
}

// TestStreamLabelsSurviveEviction: a stream that comes back after its
// table entry was evicted writes its cost and quality series under the
// label it minted first — never under "_other" — so every stream's
// cost and quality series carry the same label.
func TestStreamLabelsSurviveEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxStreams: 2})
	const query = "k=24&ratio=0.5&iters=4&format=slbl-delta&stream="
	body := ppmBody(t, testFrame(64, 48))
	for _, stream := range []string{"s1", "s2", "s3"} { // s3 evicts s1
		postFrame(t, ts, query+stream, body)
	}
	resp, _ := postFrame(t, ts, query+"s1", ppmBody(t, testFrameInverted(64, 48)))

	costs := seriesByStream(t, s, "sslic_server_stream_cost_frames_total")
	density := seriesByStream(t, s, "sslic_quality_stream_boundary_density")
	if len(costs) != 3 || len(density) != 3 {
		t.Fatalf("cost series %v and quality series %v, want s1, s2, s3 in both", costs, density)
	}
	for _, stream := range []string{"s1", "s2", "s3"} {
		if costs[stream] == "" || density[stream] == "" {
			t.Fatalf("stream %s: cost series %v, quality series %v", stream, costs, density)
		}
	}
	if costs["s1"] != "2" {
		t.Fatalf("s1 cost frames = %s, want 2", costs["s1"])
	}
	// The returning frame's quality landed in s1's own gauge.
	got, _ := strconv.ParseFloat(density["s1"], 64)
	want, err := strconv.ParseFloat(resp.Header.Get("X-Quality-Boundary-Density"), 64)
	if err != nil || math.Abs(got-want) > 1e-6 {
		t.Fatalf("s1 boundary-density gauge = %g, want the returning frame's %g", got, want)
	}
}

// TestWarmAndDeltaEvictTogether: with more streams than MaxStreams,
// a stream's warm centers and delta base leave the table together, so
// once every stream has been seen a response is warm if and only if
// its delta base is the previous frame.
func TestWarmAndDeltaEvictTogether(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxStreams: 2})
	body := ppmBody(t, testFrame(64, 48))
	for round := 0; round < 3; round++ {
		for _, stream := range []string{"s0", "s1", "s2"} {
			resp, _ := postFrame(t, ts, "k=24&ratio=0.5&iters=4&format=slbl-delta&stream="+stream, body)
			warm, base := resp.Header.Get("X-Sslic-Warm"), resp.Header.Get("X-Wire-Base")
			if round > 0 && (warm == "true") != (base == "prev") {
				t.Fatalf("round %d stream %s: X-Sslic-Warm %s with X-Wire-Base %s", round, stream, warm, base)
			}
		}
	}
}

// TestKChangeDropsWarmAndDelta: a frame at a new K runs cold and finds
// no delta base, so it reports no churn — comparing label IDs of two
// seed grids measures nothing — and cannot trip the churn floor.
func TestKChangeDropsWarmAndDelta(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, QualityMaxChurn: 0.35})
	body := ppmBody(t, testFrame(64, 48))
	for i, want := range []struct {
		k          int
		warm, base string
	}{{24, "false", "empty"}, {24, "true", "prev"}, {12, "false", "empty"}, {12, "true", "prev"}} {
		resp, _ := postFrame(t, ts, "ratio=0.5&iters=4&format=slbl-delta&stream=cam0&k="+strconv.Itoa(want.k), body)
		warm, base := resp.Header.Get("X-Sslic-Warm"), resp.Header.Get("X-Wire-Base")
		if warm != want.warm || base != want.base {
			t.Fatalf("frame %d (k=%d): X-Sslic-Warm %s, X-Wire-Base %s; want %s, %s",
				i, want.k, warm, base, want.warm, want.base)
		}
		if churn := resp.Header.Get("X-Quality-Churn"); (churn != "") != (base == "prev") {
			t.Fatalf("frame %d (k=%d): X-Quality-Churn %q with X-Wire-Base %s", i, want.k, churn, base)
		}
	}
	if st := s.Quality().Snapshot(); st.CollapsedFrames != 0 {
		t.Fatalf("collapsed frames = %g, want 0", st.CollapsedFrames)
	}
}

// TestKeylessRequestsShareNoBase: requests without a stream keep no
// delta base, so two of them — possibly from different clients — never
// encode against or measure churn from each other's labels.
func TestKeylessRequestsShareNoBase(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for i, frame := range [][]byte{ppmBody(t, testFrame(64, 48)), ppmBody(t, testFrameInverted(64, 48))} {
		resp, _ := postFrame(t, ts, "k=24&ratio=0.5&iters=4&format=slbl-delta", frame)
		if base := resp.Header.Get("X-Wire-Base"); base != "empty" {
			t.Fatalf("keyless request %d: X-Wire-Base %q, want empty", i, base)
		}
		if churn := resp.Header.Get("X-Quality-Churn"); churn != "" {
			t.Fatalf("keyless request %d: X-Quality-Churn %q, want none", i, churn)
		}
	}
}
