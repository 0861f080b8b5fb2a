package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"sslic/internal/degrade"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry/testutil"
	"sslic/internal/wire"
)

// segmentOnce posts one frame and returns the response with its body
// drained (so the keep-alive connection is reusable).
func segmentOnce(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "image/x-portable-pixmap", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestDegradationHeaderLevel0: a healthy service serves at level 0 and
// says so on every response.
func TestDegradationHeaderLevel0(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", ppmBody(t, testFrame(32, 24)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degradation-Level"); got != "0" {
		t.Fatalf("X-Degradation-Level = %q, want 0", got)
	}
}

// TestDegradedOutputDeterministic: a request served at a pinned level
// must return byte-identical labels to a direct sslic run with the
// level-mapped parameters — degraded mode stays golden-testable.
func TestDegradedOutputDeterministic(t *testing.T) {
	im := testFrame(64, 48)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DegradeInterval: -1})
	s.Degrade().Pin(degrade.CoarseSubsample)

	resp, body := segmentOnce(t, ts.URL+"/v1/segment?k=32&iters=10", ppmBody(t, im))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Degradation-Level"); got != "2" {
		t.Fatalf("X-Degradation-Level = %q, want 2", got)
	}
	labels, err := wire.Decode(bytes.NewReader(body), im.W*im.H, nil)
	if err != nil {
		t.Fatal(err)
	}

	params := sslic.DefaultParams(32, 0.5)
	params.FullIters = 10
	want, err := sslic.Segment(im, degrade.Apply(params, degrade.CoarseSubsample))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels.Labels {
		if labels.Labels[i] != want.Labels.Labels[i] {
			t.Fatalf("degraded label %d differs from direct level-2 run", i)
		}
	}
}

// TestShedLevelRefuses: level 4 answers 503 before decoding anything.
func TestShedLevelRefuses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DegradeInterval: -1})
	s.Degrade().Pin(degrade.Shed)
	resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", ppmBody(t, testFrame(16, 16)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Degradation-Level") != "4" {
		t.Fatalf("shed response missing level header")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}

	// Back to level 0, the service serves again.
	s.Degrade().Pin(degrade.Full)
	resp, _ = segmentOnce(t, ts.URL+"/v1/segment?k=8", ppmBody(t, testFrame(16, 16)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed status %d, want 200", resp.StatusCode)
	}
}

// TestBreakerOpensAndRecovers: sustained backend panics must open the
// circuit (fast 503s that never reach the backend), and after the
// cooldown a healthy probe must close it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var mu sync.Mutex
	healthy := false
	var backendCalls int
	backend := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		mu.Lock()
		backendCalls++
		ok := healthy
		mu.Unlock()
		if !ok {
			panic("poisoned model")
		}
		return sslic.SegmentContext(ctx, im, p)
	}
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, Segment: backend, DegradeInterval: -1,
		BreakerThreshold: 3, BreakerWindow: 10 * time.Second, BreakerCooldown: 50 * time.Millisecond,
	})

	body := ppmBody(t, testFrame(16, 16))
	// Three panics open the breaker; each answers 503 backend_panic.
	for i := 0; i < 3; i++ {
		resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("panic %d status %d, want 503", i, resp.StatusCode)
		}
	}
	mu.Lock()
	calls := backendCalls
	mu.Unlock()

	// Open: the next request fast-fails without touching the backend.
	resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status %d, want 503", resp.StatusCode)
	}
	mu.Lock()
	if backendCalls != calls {
		mu.Unlock()
		t.Fatal("open breaker let a request reach the backend")
	}
	healthy = true
	mu.Unlock()

	// After the cooldown, a probe goes through, succeeds, and closes
	// the circuit; subsequent requests are normal 200s.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered; last status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, _ = segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d, want 200", resp.StatusCode)
	}
	if g := s.Registry().Counter("sslic_server_breaker_opens_total", "").Value(); g < 1 {
		t.Fatalf("breaker open count = %g, want >= 1", g)
	}
}

// TestBreakerDisabled: BreakerThreshold < 0 keeps every panic a plain
// per-request 503 with no fast-fail state.
func TestBreakerDisabled(t *testing.T) {
	boom := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		panic("always")
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Segment: boom, BreakerThreshold: -1, DegradeInterval: -1})
	body := ppmBody(t, testFrame(16, 16))
	for i := 0; i < 6; i++ {
		resp, data := segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d status %d, want 503 (%s)", i, resp.StatusCode, data)
		}
	}
}

// TestControllerStepsUpUnderRealSignals: drive the sampler with real
// rejected-by-saturation traffic and check the controller escalates —
// the end-to-end signal path (registry deltas → Signals → Tick).
func TestControllerStepsUpUnderRealSignals(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	blocked := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return sslic.SegmentContext(ctx, im, p)
	}
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Segment: blocked, DegradeInterval: -1,
	})
	defer once.Do(func() { close(release) })

	// Saturate: one running + one queued, then a burst of rejections.
	body := ppmBody(t, testFrame(16, 16))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segmentOnce(t, ts.URL+"/v1/segment?k=8&timeout_ms=4000", body)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated status %d, want 429", resp.StatusCode)
		}
	}

	// Two windows each observing rejections step the controller up.
	s.Degrade().Tick(s.SampleSignals())
	for i := 0; i < 3; i++ {
		resp, _ := segmentOnce(t, ts.URL+"/v1/segment?k=8", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated status %d, want 429", resp.StatusCode)
		}
	}
	if l := s.Degrade().Tick(s.SampleSignals()); l != degrade.HalfIters {
		t.Fatalf("controller at %v after sustained saturation, want half-iters", l)
	}
	once.Do(func() { close(release) })
	wg.Wait()

	// Calm windows recover to level 0 (StepDownHold defaults to 5).
	for i := 0; i < 10; i++ {
		s.Degrade().Tick(s.SampleSignals())
	}
	if l := s.Degrade().Level(); l != degrade.Full {
		t.Fatalf("controller stuck at %v after calm windows", l)
	}
}
