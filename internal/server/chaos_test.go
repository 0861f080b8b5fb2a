package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"context"

	"sslic/internal/degrade"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry/testutil"
	"sslic/internal/wire"
)

// The chaos suite drives the full HTTP service under a seeded fault
// schedule and asserts the service-level robustness contract:
//
//   - every response is well-formed and in the allowed overload set
//     (2xx, 429, 499, 503, 504) — faults never leak as 400s or 500s;
//   - every 2xx carries labels byte-identical to a fault-free run of
//     that frame at the level the response was served at;
//   - the degradation controller recovers monotonically to level 0
//     once the faults stop;
//   - no goroutine leaks, no deadlock (bounded client timeouts).

// allowedChaosStatus is the response contract under faults: success,
// admission rejection, client cancel, or an explicitly retriable
// server-side failure. Anything else (400/500) means a fault leaked
// out misclassified.
func allowedChaosStatus(code int) bool {
	if code >= 200 && code < 300 {
		return true
	}
	switch code {
	case http.StatusTooManyRequests, 499,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// chaosPost posts one frame with a bounded client timeout (a hung
// response is a deadlock, not a test timeout) and drains the body.
func chaosPost(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "image/x-portable-pixmap", bytes.NewReader(body))
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

func TestChaosSeededSchedule(t *testing.T) {
	testutil.VerifyNoLeaks(t)

	// Frames and parameters are fixed so every (frame, level) pair has
	// one golden output — computed before the injector goes live.
	frames := []*imgio.Image{testFrame(32, 24), testFrame(48, 40)}
	baseParams := func() sslic.Params {
		p := sslic.DefaultParams(16, 0.5)
		p.FullIters = 8
		return p
	}
	type goldenKey struct {
		frame int
		level degrade.Level
	}
	golden := map[goldenKey]*sslic.Result{}
	for fi, im := range frames {
		for _, lvl := range []degrade.Level{degrade.Full, degrade.CoarseSubsample} {
			res, err := sslic.Segment(im, degrade.Apply(baseParams(), lvl))
			if err != nil {
				t.Fatal(err)
			}
			golden[goldenKey{fi, lvl}] = res
		}
	}
	checkGolden := func(fi int, lvl degrade.Level, body []byte) {
		t.Helper()
		got, err := wire.Decode(bytes.NewReader(body), frames[fi].W*frames[fi].H, nil)
		if err != nil {
			t.Fatalf("2xx response with undecodable labels: %v", err)
		}
		want := golden[goldenKey{fi, lvl}]
		if len(got.Labels) != len(want.Labels.Labels) {
			t.Fatalf("frame %d level %v: %d labels, want %d", fi, lvl, len(got.Labels), len(want.Labels.Labels))
		}
		for i := range want.Labels.Labels {
			if got.Labels[i] != want.Labels.Labels[i] {
				t.Fatalf("frame %d level %v: label %d differs from fault-free golden", fi, lvl, i)
			}
		}
	}

	// The seeded schedule: decode errors, admission latency jitter,
	// retryable worker faults, and two backend panics. Panic actions
	// live at sslic.pass and pool.run (both inside the pool's recover,
	// so they surface as ErrSegmentPanic 503s); a panic at imgio.decode
	// would instead be caught by the server middleware as a 500.
	inj := faults.New(42)
	inj.Set(faults.PointDecode, faults.PointConfig{Probability: 0.12, ErrMsg: "chaos: decode"})
	inj.Set(faults.PointPoolSubmit, faults.PointConfig{Every: 6, Latency: 2 * time.Millisecond})
	inj.Set(faults.PointPoolRun, faults.PointConfig{Probability: 0.25, ErrMsg: "chaos: worker"})
	inj.Set(faults.PointSubsetPass, faults.PointConfig{Every: 97, MaxFires: 2, Panic: true})
	faults.Enable(inj)
	t.Cleanup(faults.Disable)

	s, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 2, DegradeInterval: -1,
		Retries: 2, RetryBackoff: time.Millisecond,
	})
	client := &http.Client{Timeout: 30 * time.Second}
	url := ts.URL + "/v1/segment?k=16&iters=8"
	body := make([][]byte, len(frames))
	for i, im := range frames {
		body[i] = ppmBody(t, im)
	}

	counts := map[int]int{}
	storm := func(n int, lvl degrade.Level) {
		t.Helper()
		for i := 0; i < n; i++ {
			fi := i % len(frames)
			resp, data := chaosPost(t, client, url, body[fi])
			counts[resp.StatusCode]++
			if !allowedChaosStatus(resp.StatusCode) {
				t.Fatalf("request %d: status %d outside the chaos contract (%s)", i, resp.StatusCode, data)
			}
			if resp.StatusCode == http.StatusOK {
				if got := resp.Header.Get("X-Degradation-Level"); got != strconv.Itoa(int(lvl)) {
					t.Fatalf("request %d: X-Degradation-Level = %q, want %d", i, got, int(lvl))
				}
				checkGolden(fi, lvl, data)
			}
		}
	}

	// Phase 1: the storm at level 0.
	storm(30, degrade.Full)

	// Phase 2: synthetic overload windows escalate the controller two
	// levels (StepUpHold defaults to 2 ticks per step); the storm
	// continues at level 2 and its successes golden-match level 2.
	for i := 0; i < 4; i++ {
		s.Degrade().Tick(degrade.Signals{QueueFill: 1, Rejected: 3})
	}
	if l := s.Degrade().Level(); l != degrade.CoarseSubsample {
		t.Fatalf("controller at %v after 4 overloaded ticks, want coarse-subsample", l)
	}
	storm(16, degrade.CoarseSubsample)

	// The schedule must actually have fired, and some faults must have
	// surfaced — otherwise the contract above was tested vacuously.
	st := inj.Stats()
	if st[faults.PointDecode].Fires == 0 || st[faults.PointPoolRun].Fires == 0 {
		t.Fatalf("seeded schedule never fired: %+v", st)
	}
	if st[faults.PointSubsetPass].Fires != 2 {
		t.Fatalf("subset-pass panics fired %d times, want 2", st[faults.PointSubsetPass].Fires)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatal("no request survived the storm — retry layer absorbed nothing")
	}
	if counts[http.StatusServiceUnavailable] == 0 {
		t.Fatal("no request failed under the storm — schedule too weak to test the contract")
	}

	// Phase 3: faults stop; calm windows walk the controller back down
	// monotonically (StepDownHold defaults to 5) until level 0.
	faults.Disable()
	s.SampleSignals() // close the storm window so recovery sees calm deltas
	prev := s.Degrade().Level()
	for tick := 0; prev != degrade.Full; tick++ {
		if tick > 40 {
			t.Fatalf("controller stuck at %v after %d calm ticks", prev, tick)
		}
		l := s.Degrade().Tick(s.SampleSignals())
		if l > prev {
			t.Fatalf("recovery not monotone: %v -> %v on a calm tick", prev, l)
		}
		prev = l
	}

	// Recovered: a clean request serves 200 at level 0, golden-exact.
	resp, data := chaosPost(t, client, url, body[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degradation-Level"); got != "0" {
		t.Fatalf("post-recovery X-Degradation-Level = %q, want 0", got)
	}
	checkGolden(0, degrade.Full, data)

	// CI artifact: the full metric state after the storm (fault fires,
	// retries, panics, breaker and degradation series) for the chaos
	// job to upload.
	if path := os.Getenv("CHAOS_METRICS_OUT"); path != "" {
		var buf bytes.Buffer
		s.Registry().WritePrometheus(&buf)
		buf.WriteString("# chaos fault schedule (seed 42), calls/fires per point:\n")
		for _, pt := range faults.KnownPoints() {
			if ps, ok := st[pt]; ok {
				buf.WriteString("# " + pt + " calls=" + strconv.FormatInt(ps.Calls, 10) +
					" fires=" + strconv.FormatInt(ps.Fires, 10) + "\n")
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Errorf("writing chaos metrics artifact: %v", err)
		}
	}
}

// TestChaosOverloadDegradedLevelShedsLess pins the service at level 0
// and at level 1 under the same offered load (arrivals faster than the
// level-0 service rate, slower than the level-1 rate) and checks the
// degraded level rejects strictly fewer requests — degradation buys
// admission capacity, which is the whole point of the ladder.
func TestChaosOverloadDegradedLevelShedsLess(t *testing.T) {
	if testing.Short() {
		t.Skip("overload timing test")
	}
	testutil.VerifyNoLeaks(t)

	run := func(lvl degrade.Level) (ok, rejected int) {
		// Service time scales with the iteration budget, like the real
		// backend: 40ms at level 0 (iters 10), 20ms at level 1 (iters 5).
		weighted := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
			select {
			case <-time.After(time.Duration(p.FullIters) * 4 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return sslic.SegmentContext(ctx, im, p)
		}
		s, ts := newTestServer(t, Config{
			Workers: 1, QueueDepth: 1, Segment: weighted, DegradeInterval: -1,
		})
		s.Degrade().Pin(lvl)
		body := ppmBody(t, testFrame(16, 16))
		client := &http.Client{Timeout: 30 * time.Second}

		// Open-loop arrivals: one request every 18ms, 50 requests.
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, data := chaosPost(t, client, ts.URL+"/v1/segment?k=8", body)
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					rejected++
				default:
					t.Errorf("overload status %d (%s)", resp.StatusCode, data)
				}
			}()
			time.Sleep(18 * time.Millisecond)
		}
		wg.Wait()
		return ok, rejected
	}

	ok0, rej0 := run(degrade.Full)
	ok1, rej1 := run(degrade.HalfIters)
	t.Logf("level 0: %d ok / %d rejected; level 1: %d ok / %d rejected", ok0, rej0, ok1, rej1)
	if rej0 == 0 {
		t.Fatal("level 0 never saturated — offered load too low to compare")
	}
	if rej1 >= rej0 {
		t.Fatalf("level 1 rejected %d >= level 0's %d: degradation bought no capacity", rej1, rej0)
	}
}
