package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/sslic"
	"sslic/internal/wire"
)

// testFrame renders a deterministic scene with enough structure for
// segmentation to be meaningful.
func testFrame(w, h int) *imgio.Image {
	im := imgio.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			q := uint8(0)
			if x*2 > w {
				q = 120
			}
			if y*2 > h {
				q += 90
			}
			im.Set(x, y, uint8(x*3)+q, uint8(y*5), q)
		}
	}
	return im
}

func ppmBody(t *testing.T, im *imgio.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imgio.EncodePPM(&buf, im); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pngBody(t *testing.T, im *imgio.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imgio.EncodePNG(&buf, im); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestSegmentGolden: labels returned over HTTP must byte-match an
// in-process sslic.Segment run with the server's own parameter mapping,
// for both input codecs and for the multipart path.
func TestSegmentGolden(t *testing.T) {
	im := testFrame(64, 48)
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})

	const query = "k=24&ratio=0.5&iters=4&format=labels"
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := parseOptions(s.cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sslic.Segment(im, s.paramsFor(opts))
	if err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	if err := wire.EncodeRaw(&golden, want.Labels); err != nil {
		t.Fatal(err)
	}

	multipartBody, multipartCT := multipartFrame(t, pngBody(t, im))
	cases := []struct {
		name, contentType string
		body              []byte
	}{
		{"ppm", "", ppmBody(t, im)},
		{"png", "image/png", pngBody(t, im)},
		{"multipart-png", multipartCT, multipartBody},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/segment?"+query, tc.contentType, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			if resp.Header.Get("X-Sslic-Warm") != "false" {
				t.Fatalf("cold request marked warm")
			}
			if !bytes.Equal(got, golden.Bytes()) {
				t.Fatalf("%s: response labels differ from in-process golden (%d vs %d bytes)",
					tc.name, len(got), golden.Len())
			}
		})
	}
}

func multipartFrame(t *testing.T, frame []byte) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("frame", "frame.png")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// TestSegmentWarmStream: two frames on one stream ID — the second must
// be warm and match the manual warm chain.
func TestSegmentWarmStream(t *testing.T) {
	im1 := testFrame(64, 48)
	im2 := testFrame(64, 48)
	for i := range im2.C0 {
		im2.C0[i] += 9
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2, WarmIters: 2})

	post := func(im *imgio.Image) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/segment?k=24&iters=4&stream=camA", "", bytes.NewReader(ppmBody(t, im)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return resp, b
	}
	r1, _ := post(im1)
	if r1.Header.Get("X-Sslic-Warm") != "false" {
		t.Fatal("first frame of stream marked warm")
	}
	r2, got := post(im2)
	if r2.Header.Get("X-Sslic-Warm") != "true" {
		t.Fatal("second frame of stream not warm")
	}

	// Manual chain with the server's parameter mapping.
	q, _ := url.ParseQuery("k=24&iters=4")
	opts, err := parseOptions(s.cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	p := s.paramsFor(opts)
	cold, err := sslic.Segment(im1, p)
	if err != nil {
		t.Fatal(err)
	}
	wp := p
	wp.InitialCenters = cold.Centers
	wp.FullIters = 2
	want, err := sslic.Segment(im2, wp)
	if err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	if err := wire.EncodeRaw(&golden, want.Labels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden.Bytes()) {
		t.Fatal("warm response differs from manual warm chain")
	}
}

// TestSegmentRenderFormats: overlay and mean-color outputs must decode
// as images of the frame's geometry in both encodings.
func TestSegmentRenderFormats(t *testing.T) {
	im := testFrame(48, 36)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for _, format := range []string{"overlay", "mean"} {
		for _, enc := range []string{"ppm", "png"} {
			u := fmt.Sprintf("%s/v1/segment?k=12&iters=2&format=%s&encoding=%s", ts.URL, format, enc)
			resp, err := http.Post(u, "", bytes.NewReader(ppmBody(t, im)))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", format, enc, resp.StatusCode, b)
			}
			out, err := imgio.DecodeImage(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s/%s: undecodable response: %v", format, enc, err)
			}
			if out.W != im.W || out.H != im.H {
				t.Fatalf("%s/%s: response %dx%d, want %dx%d", format, enc, out.W, out.H, im.W, im.H)
			}
		}
	}
}

// blockGate parks segment calls until released — the deterministic way
// to hold the pool at saturation or keep work in flight during a drain.
type blockGate struct {
	entered atomic.Int64
	release chan struct{}
}

func newBlockGate() *blockGate { return &blockGate{release: make(chan struct{})} }

func (b *blockGate) segment(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
	b.entered.Add(1)
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return sslic.SegmentContext(ctx, im, p)
}

// TestSegmentErrorTable drives every error path of the endpoint.
func TestSegmentErrorTable(t *testing.T) {
	frame := ppmBody(t, testFrame(32, 24))

	t.Run("basic", func(t *testing.T) {
		_, ts := newTestServer(t, Config{
			Workers: 1, QueueDepth: 1,
			MaxBodyBytes: 1 << 16,
			MaxPixels:    64 * 64,
		})
		big := ppmBody(t, testFrame(128, 128)) // 49KB body, 16K pixels > MaxPixels
		huge := make([]byte, 1<<16+64)         // over MaxBodyBytes
		copy(huge, ppmBody(t, testFrame(160, 140)))

		cases := []struct {
			name, method, query, contentType string
			body                             []byte
			wantCode                         int
		}{
			{"method not allowed", http.MethodGet, "", "", frame, http.StatusMethodNotAllowed},
			{"garbage body", http.MethodPost, "", "", []byte("not an image"), http.StatusBadRequest},
			{"empty body", http.MethodPost, "", "", nil, http.StatusBadRequest},
			{"truncated ppm", http.MethodPost, "", "", frame[:20], http.StatusBadRequest},
			{"ppm one byte short", http.MethodPost, "", "", frame[:len(frame)-1], http.StatusBadRequest},
			{"ppm header without pixels", http.MethodPost, "", "", frame[:len(frame)-3*32*24], http.StatusBadRequest},
			{"bad k", http.MethodPost, "k=abc", "", frame, http.StatusBadRequest},
			{"k out of range", http.MethodPost, "k=0", "", frame, http.StatusBadRequest},
			{"k over pixels", http.MethodPost, "k=100000", "", frame, http.StatusBadRequest},
			{"bad ratio", http.MethodPost, "ratio=2", "", frame, http.StatusBadRequest},
			{"more subsets than pixels", http.MethodPost, "k=4&ratio=1e-10", "", frame, http.StatusBadRequest},
			{"subset count past int", http.MethodPost, "k=4&ratio=5e-324", "", frame, http.StatusBadRequest},
			{"unknown datapath", http.MethodPost, "k=4&datapath=coded11", "", frame, http.StatusBadRequest},
			{"bad format", http.MethodPost, "format=jpeg", "", frame, http.StatusBadRequest},
			{"bad stream id", http.MethodPost, "stream=a%20b", "", frame, http.StatusBadRequest},
			{"long stream id", http.MethodPost, "stream=" + strings.Repeat("x", 65), "", frame, http.StatusBadRequest},
			{"bad timeout", http.MethodPost, "timeout_ms=-5", "", frame, http.StatusBadRequest},
			{"multipart no boundary", http.MethodPost, "", "multipart/form-data", frame, http.StatusBadRequest},
			{"multipart no frame part", http.MethodPost, "", "multipart/form-data; boundary=b", []byte("--b\r\nContent-Disposition: form-data; name=\"other\"\r\n\r\nx\r\n--b--\r\n"), http.StatusBadRequest},
			{"pixel budget", http.MethodPost, "", "", big, http.StatusRequestEntityTooLarge},
			{"body too large", http.MethodPost, "", "", huge, http.StatusRequestEntityTooLarge},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				req, err := http.NewRequest(tc.method, ts.URL+"/v1/segment?"+tc.query, bytes.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.contentType != "" {
					req.Header.Set("Content-Type", tc.contentType)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.wantCode {
					t.Fatalf("status %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(body), tc.wantCode)
				}
			})
		}
	})

	t.Run("saturated 429", func(t *testing.T) {
		gate := newBlockGate()
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Segment: gate.segment})

		waitFor := func(what string, cond func() bool) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for " + what)
				}
				time.Sleep(time.Millisecond)
			}
		}

		// Occupy the worker, then the single queue slot.
		errs := make(chan error, 2)
		post := func() {
			resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(frame))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}
		go post()
		waitFor("worker occupancy", func() bool { return gate.entered.Load() >= 1 })
		go post()
		waitFor("queue occupancy", func() bool { return s.pool.Queued() >= 1 })

		resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}

		close(gate.release)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("admitted request failed: %v", err)
			}
		}
	})

	t.Run("draining 503", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		s.Drain()
		resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining status %d, want 503", resp.StatusCode)
		}

		hz, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hz.Body)
		hz.Body.Close()
		if hz.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz %d, want 503", hz.StatusCode)
		}
	})

	t.Run("deadline 504", func(t *testing.T) {
		gate := newBlockGate()
		defer close(gate.release)
		_, ts := newTestServer(t, Config{
			Workers: 1, QueueDepth: 1, Segment: gate.segment,
			RequestTimeout: 50 * time.Millisecond, MaxTimeout: time.Second,
		})
		resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("deadline status %d, want 504", resp.StatusCode)
		}
	})
}

// TestHealthzAndMetrics: liveness plus the request series appearing on
// the shared registry after traffic.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hz.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(ppmBody(t, testFrame(32, 24))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("segment %d", resp.StatusCode)
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(m.Body)
	m.Body.Close()
	for _, series := range []string{
		`sslic_server_responses_total{code="200",endpoint="segment"}`,
		`sslic_server_request_seconds_bucket`,
		`sslic_pool_queue_depth`,
		`sslic_pool_jobs_admitted_total`,
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Fatalf("metrics missing %s\n%s", series, body)
		}
	}
}

// TestPanicIsolation: a panic on one frame (here from the backend, the
// deepest point a poisoned request reaches) must produce a 503 (the
// backend_panic classification the circuit breaker counts — transient
// from the client's view, so retryable) and leave the server —
// including the worker that hit it — serving.
func TestPanicIsolation(t *testing.T) {
	boom := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		panic("poisoned frame")
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Segment: boom})
	_ = s

	resp, err := http.Post(ts.URL+"/v1/segment?k=8", "", bytes.NewReader(ppmBody(t, testFrame(16, 16))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panic status %d, want 503", resp.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatal("server dead after handler panic")
	}
}

// TestCloseIdempotent guards the shutdown path against double Close.
func TestCloseIdempotent(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, err := s.pool.Submit(context.Background(), pipeline.Job{Image: testFrame(8, 8), Params: sslic.DefaultParams(4, 0.5)}); !errors.Is(err, pipeline.ErrPoolClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}
