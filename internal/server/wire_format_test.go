package server

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/sslic"
	"sslic/internal/wire"
)

var update = flag.Bool("update", false, "rewrite wire-format golden files")

// testFrameShifted is testFrame with the columns rolled right by dx: the
// same scene one "camera pan" later, so consecutive-frame deltas have
// realistic overlap without being identical.
func testFrameShifted(w, h, dx int) *imgio.Image {
	src := testFrame(w, h)
	im := imgio.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := (x + dx) % w
			i, j := y*w+x, y*w+sx
			im.C0[i], im.C1[i], im.C2[i] = src.C0[j], src.C1[j], src.C2[j]
		}
	}
	return im
}

// testFrameInverted is testFrame with every channel complemented — same
// dimensions, completely different pixel content, for aliasing tests.
func testFrameInverted(w, h int) *imgio.Image {
	im := testFrame(w, h)
	for i := range im.C0 {
		im.C0[i] = 255 - im.C0[i]
		im.C1[i] = 255 - im.C1[i]
		im.C2[i] = 255 - im.C2[i]
	}
	return im
}

// goldenLabels runs the server's own parameter mapping in-process on a
// cold state, which is what any stream-less HTTP request computes.
func goldenLabels(t *testing.T, s *Server, im *imgio.Image, query string) *imgio.LabelMap {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := parseOptions(s.cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sslic.Segment(im, s.paramsFor(opts))
	if err != nil {
		t.Fatal(err)
	}
	return res.Labels
}

func postFrame(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/segment?"+query, "", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	return resp, got
}

// TestWireFormatGolden: each slbl-family response must byte-match both
// the in-process wire encoder over the server's own segmentation AND a
// committed golden file. The goldens pin the fixed datapath (bit-exact
// integer math on every architecture), so a byte drift means the wire
// framing or the fixed-point core changed, not the host's FPU.
func TestWireFormatGolden(t *testing.T) {
	im := testFrame(64, 48)
	body := ppmBody(t, im)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	const base = "k=24&ratio=0.5&iters=4&datapath=fixed"
	want := goldenLabels(t, s, im, base)

	cases := []struct {
		format string
		encode func(w io.Writer) error
	}{
		{formatSLBL, func(w io.Writer) error { return wire.EncodeRaw(w, want) }},
		{formatSLBLRLE, func(w io.Writer) error { return wire.EncodeRLE(w, want) }},
		{formatSLBLDelta, func(w io.Writer) error { return wire.EncodeDelta(w, want, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.format, func(t *testing.T) {
			resp, got := postFrame(t, ts, base+"&format="+tc.format, body)

			wf, ok := wire.ParseFormat(tc.format)
			if !ok {
				t.Fatalf("ParseFormat(%q) rejected a served format", tc.format)
			}
			if ct := resp.Header.Get("Content-Type"); ct != wf.ContentType() {
				t.Fatalf("Content-Type = %q, want %q", ct, wf.ContentType())
			}
			if hv := resp.Header.Get("X-Wire-Format"); hv != tc.format {
				t.Fatalf("X-Wire-Format = %q, want %q", hv, tc.format)
			}
			if tc.format == formatSLBLDelta {
				// No stream: there is never a cached base.
				if hv := resp.Header.Get("X-Wire-Base"); hv != "empty" {
					t.Fatalf("X-Wire-Base = %q, want \"empty\"", hv)
				}
			}

			var exp bytes.Buffer
			if err := tc.encode(&exp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, exp.Bytes()) {
				t.Fatalf("response bytes differ from in-process %s encoding (%d vs %d bytes)",
					tc.format, len(got), exp.Len())
			}

			// The response must decode back to the exact label map.
			dec, err := wire.Decode(bytes.NewReader(got), im.W*im.H, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dec.W != want.W || dec.H != want.H || !int32Equal(dec.Labels, want.Labels) {
				t.Fatal("decoded response does not round-trip the segmentation")
			}

			golden := filepath.Join("testdata", "wire", tc.format+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("response differs from committed golden %s (%d vs %d bytes)",
					golden, len(got), len(wantBytes))
			}
		})
	}

	// Interop: format=slbl is the same framing imgio has always written,
	// so it must equal the legacy format=labels body byte for byte.
	_, legacy := postFrame(t, ts, base+"&format=labels", body)
	_, slbl := postFrame(t, ts, base+"&format=slbl", body)
	if !bytes.Equal(legacy, slbl) {
		t.Fatal("format=slbl bytes differ from format=labels bytes")
	}
}

// TestWireDeltaWarmGolden pins the warm-stream delta: three frames of
// one panning stream at format=slbl-delta on the fixed datapath, each
// served warm from the second on and encoded against the previous
// response. Each body must byte-match an in-process wire.EncodeDelta of
// the stream's labels against the previous frame's, and a committed
// golden; the churn, empty-cluster and boundary-density headers must
// equal a pixel count of those labels. A parallel stream serves the
// same frames as raw slbl, so the labels come from the server's own
// warm chain, not from decoding the deltas under test.
func TestWireDeltaWarmGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	const w, h, k = 64, 48, 24
	const opts = "k=24&ratio=0.5&iters=4&datapath=fixed"
	nx, ny := slic.CenterGridDims(w, h, k)

	var prev *imgio.LabelMap
	for f := 0; f < 3; f++ {
		body := ppmBody(t, testFrameShifted(w, h, 3*f))
		_, raw := postFrame(t, ts, opts+"&format=slbl&stream=warm-raw", body)
		labels, err := wire.Decode(bytes.NewReader(raw), w*h, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := postFrame(t, ts, opts+"&format=slbl-delta&stream=warm-delta", body)
		wantBase, wantWarm := "empty", "false"
		if f > 0 {
			wantBase, wantWarm = "prev", "true"
		}
		if hv := resp.Header.Get("X-Wire-Base"); hv != wantBase {
			t.Fatalf("frame %d: X-Wire-Base = %q, want %q", f, hv, wantBase)
		}
		if hv := resp.Header.Get("X-Sslic-Warm"); hv != wantWarm {
			t.Fatalf("frame %d: X-Sslic-Warm = %q, want %q", f, hv, wantWarm)
		}

		var exp bytes.Buffer
		if err := wire.EncodeDelta(&exp, labels, prev); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp.Bytes()) {
			t.Fatalf("frame %d: response bytes differ from the in-process delta (%d vs %d bytes)",
				f, len(got), exp.Len())
		}
		golden := filepath.Join("testdata", "wire", "slbl-delta-warm"+strconv.Itoa(f)+".golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantBytes, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("frame %d: response differs from committed golden %s (%d vs %d bytes)",
				f, golden, len(got), len(wantBytes))
		}

		hv, ok := resp.Header["X-Quality-Churn"]
		if f == 0 {
			if ok {
				t.Fatalf("frame 0: X-Quality-Churn = %q without a base", hv)
			}
		} else {
			changed := 0
			for i, v := range labels.Labels {
				if v != prev.Labels[i] {
					changed++
				}
			}
			if got, exp := resp.Header.Get("X-Quality-Churn"), strconv.FormatFloat(float64(changed)/float64(w*h), 'f', 6, 64); got != exp {
				t.Errorf("frame %d: X-Quality-Churn = %q, want %q", f, got, exp)
			}
		}
		want := countProxies(labels, nx*ny)
		if got := resp.Header.Get("X-Quality-Empty-Clusters"); got != strconv.Itoa(want.empty) {
			t.Errorf("frame %d: X-Quality-Empty-Clusters = %q, want %d", f, got, want.empty)
		}
		if got, exp := resp.Header.Get("X-Quality-Boundary-Density"), strconv.FormatFloat(float64(want.boundary)/float64(w*h), 'f', 6, 64); got != exp {
			t.Errorf("frame %d: X-Quality-Boundary-Density = %q, want %q", f, got, exp)
		}
		prev = labels
	}
}

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireDeltaStream drives a two-frame stream through slbl-delta and
// checks the client-visible contract: the first response declares the
// empty base and the second declares (and is decodable against) the
// previous response, reconstructing exactly the labels a parallel
// stream receives as raw slbl. A geometry change must reset the base.
func TestWireDeltaStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	f1 := ppmBody(t, testFrame(64, 48))
	f2 := ppmBody(t, testFrameShifted(64, 48, 8))
	const opts = "k=24&ratio=0.5&iters=4"

	// Stream "cam-raw" serves ground truth: the same frame sequence as
	// raw slbl. Warm-start evolution is per stream and both streams see
	// identical frames and parameters, so the label maps match.
	_, raw1 := postFrame(t, ts, opts+"&format=slbl&stream=cam-raw", f1)
	_, raw2 := postFrame(t, ts, opts+"&format=slbl&stream=cam-raw", f2)
	want1, err := wire.Decode(bytes.NewReader(raw1), 64*48, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := wire.Decode(bytes.NewReader(raw2), 64*48, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp1, d1 := postFrame(t, ts, opts+"&format=slbl-delta&stream=cam-delta", f1)
	if hv := resp1.Header.Get("X-Wire-Base"); hv != "empty" {
		t.Fatalf("first delta X-Wire-Base = %q, want \"empty\"", hv)
	}
	got1, err := wire.Decode(bytes.NewReader(d1), 64*48, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !int32Equal(got1.Labels, want1.Labels) {
		t.Fatal("first delta response does not decode to the raw labels")
	}

	resp2, d2 := postFrame(t, ts, opts+"&format=slbl-delta&stream=cam-delta", f2)
	if hv := resp2.Header.Get("X-Wire-Base"); hv != "prev" {
		t.Fatalf("second delta X-Wire-Base = %q, want \"prev\"", hv)
	}
	got2, err := wire.Decode(bytes.NewReader(d2), 64*48, got1)
	if err != nil {
		t.Fatal(err)
	}
	if !int32Equal(got2.Labels, want2.Labels) {
		t.Fatal("delta chain does not reconstruct the raw labels")
	}
	if len(d2) >= len(raw2) {
		t.Fatalf("delta frame (%d bytes) not smaller than raw frame (%d bytes)", len(d2), len(raw2))
	}

	// A resolution change invalidates the cached base: the response must
	// fall back to the empty base, not emit garbage against stale dims.
	f3 := ppmBody(t, testFrame(32, 24))
	resp3, d3 := postFrame(t, ts, opts+"&format=slbl-delta&stream=cam-delta", f3)
	if hv := resp3.Header.Get("X-Wire-Base"); hv != "empty" {
		t.Fatalf("post-resize delta X-Wire-Base = %q, want \"empty\"", hv)
	}
	if _, err := wire.Decode(bytes.NewReader(d3), 32*24, nil); err != nil {
		t.Fatalf("post-resize delta does not decode standalone: %v", err)
	}

	// Anonymous requests never seed a base for each other.
	_, _ = postFrame(t, ts, opts+"&format=slbl-delta", f1)
	respAnon, _ := postFrame(t, ts, opts+"&format=slbl-delta", f2)
	if hv := respAnon.Header.Get("X-Wire-Base"); hv != "empty" {
		t.Fatalf("anonymous delta X-Wire-Base = %q, want \"empty\"", hv)
	}
}

// brokenConn is a ResponseWriter whose client has gone away: headers
// are accepted, every body write fails.
type brokenConn struct{ h http.Header }

func (b *brokenConn) Header() http.Header       { return b.h }
func (b *brokenConn) WriteHeader(int)           {}
func (b *brokenConn) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// TestFailedDeltaWriteDropsBase: a delta frame the client never
// received must not become the stream's base, or the next response
// would declare X-Wire-Base: prev against labels the client does not
// have and decode to wrong labels without any error.
func TestFailedDeltaWriteDropsBase(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	h := s.Handler()
	body := ppmBody(t, testFrame(64, 48))
	const target = "/v1/segment?k=24&ratio=0.5&iters=4&stream=cam0&format=slbl-delta"
	serve := func(w http.ResponseWriter) {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	}

	serve(&brokenConn{h: http.Header{}})
	first := httptest.NewRecorder()
	serve(first)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	if got := first.Header().Get("X-Wire-Base"); got != "empty" {
		t.Fatalf("X-Wire-Base after a failed write = %q, want \"empty\"", got)
	}
	prev, err := wire.Decode(first.Body, 64*48, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The delivered frame is the base again from here on.
	second := httptest.NewRecorder()
	serve(second)
	if got := second.Header().Get("X-Wire-Base"); got != "prev" {
		t.Fatalf("X-Wire-Base after a delivered frame = %q, want \"prev\"", got)
	}
	if _, err := wire.Decode(second.Body, 64*48, prev); err != nil {
		t.Fatal(err)
	}
}

// TestPoolReuseNoAliasing hammers one server with back-to-back requests
// whose buffers recycle through the pool, checking every response
// byte-matches a cold in-process run on a fresh buffer: a stale pixel or
// label leaking out of a recycled plane shows up as a byte diff.
func TestPoolReuseNoAliasing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	const opts = "k=24&ratio=0.5&iters=4"

	frames := []*imgio.Image{
		testFrame(64, 48),
		testFrameInverted(64, 48), // same size class, opposite content
		testFrame(63, 47),         // same class, smaller dims: reslice path
		testFrame(32, 24),         // different class
		testFrame(64, 48),         // back to the first class
	}
	for i, im := range frames {
		want := goldenLabels(t, s, im, opts)
		var exp bytes.Buffer
		if err := wire.EncodeRaw(&exp, want); err != nil {
			t.Fatal(err)
		}
		_, got := postFrame(t, ts, opts+"&format=labels", ppmBody(t, im))
		if !bytes.Equal(got, exp.Bytes()) {
			t.Fatalf("request %d (%dx%d): pooled response differs from cold golden", i, im.W, im.H)
		}
	}

	// The in-place overlay render writes into the recycled decode buffer;
	// the response must match a render over a fresh copy of the frame.
	im := testFrameInverted(64, 48)
	want := goldenLabels(t, s, im, opts)
	expIm := testFrameInverted(64, 48)
	imgio.OverlayInto(expIm, expIm, want, 255, 0, 0)
	var exp bytes.Buffer
	if err := imgio.EncodePPM(&exp, expIm); err != nil {
		t.Fatal(err)
	}
	_, got := postFrame(t, ts, opts+"&format=overlay&encoding=ppm", ppmBody(t, im))
	if !bytes.Equal(got, exp.Bytes()) {
		t.Fatal("pooled overlay response differs from fresh-buffer render")
	}
}

// TestCostAllocHeaderShrinks: the ledger charges measured pool bytes, so
// a steady-state pooled request — hitting recycled buffers for both the
// decode target and the label map — must report strictly fewer
// allocated bytes than its cold predecessor, and fewer than a request
// allocating every buffer fresh.
func TestCostAllocHeaderShrinks(t *testing.T) {
	const w, h = 64, 48
	body := ppmBody(t, testFrame(w, h))
	const query = "k=24&ratio=0.5&iters=4&format=labels"

	allocBytes := func(resp *http.Response) int64 {
		hv := resp.Header.Get("X-Cost-Alloc-Bytes")
		if hv == "" {
			return 0 // zero-valued cost fields are omitted
		}
		n, err := strconv.ParseInt(hv, 10, 64)
		if err != nil {
			t.Fatalf("bad X-Cost-Alloc-Bytes %q: %v", hv, err)
		}
		return n
	}

	_, pooled := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	r1, _ := postFrame(t, pooled, query, body)
	r2, _ := postFrame(t, pooled, query, body)
	cold, warm := allocBytes(r1), allocBytes(r2)
	if cold <= 0 {
		t.Fatalf("cold pooled request reports %d alloc bytes, want > 0", cold)
	}
	if warm >= cold {
		t.Fatalf("steady-state pooled request reports %d alloc bytes, want < %d", warm, cold)
	}

	// Fresh buffers for every request would be three image planes and a
	// label map: 3WH + 4WH bytes.
	const estimate = 7 * w * h
	if warm >= estimate {
		t.Fatalf("steady-state pooled request (%d bytes) not under the unpooled estimate (%d)", warm, estimate)
	}
}

// TestSteadyStateAllocs is the allocation gate over the whole request
// path: Server.Handler() serving the streams workload's request shape (a
// warm stream=, datapath=fixed, format=slbl-delta), httptest request and
// recorder included. The decode target, label map, delta base and
// worker scratch all come from the buffer pool, the quality scan's
// counts from internal/quality's pool and the decoder's read buffer
// from internal/imgio's, so what remains is the per-request
// bookkeeping of the serving layers. The ceiling leaves room for about
// 35 more objects per request: it trips on a layer that
// starts allocating per pass, per tile or per row, not on one new
// object or one lost buffer.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	s, err := New(Config{Workers: 1, QueueDepth: 2, DegradeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := ppmBody(t, testFrame(160, 120))
	const target = "/v1/segment?k=48&iters=4&stream=cam0&datapath=fixed&format=slbl-delta"
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Wire-Base") == "" {
			t.Fatalf("status %d, X-Wire-Base %q", rec.Code, rec.Header().Get("X-Wire-Base"))
		}
	}
	run() // cold frame: charges the pool and seeds the stream
	run() // first warm frame: the delta base exists from here on

	allocs := testing.AllocsPerRun(20, run)
	t.Logf("steady-state allocs/op = %.1f", allocs)
	// 116 objects per request on a 2-vCPU x86-64 host with Go 1.24. The
	// ceiling is the perf gate's 1.10x over 139, a reading from before
	// the handler stopped building trace-instant arguments for untraced
	// requests. CI's Go 1.22 reading is in its -v log.
	if allocs > 152 {
		t.Fatalf("steady-state request allocates %.1f objects/op, want <= 152", allocs)
	}
}
