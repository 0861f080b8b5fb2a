package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"sslic/internal/degrade"
	"sslic/internal/slo"
	"sslic/internal/telemetry"
)

// TestCostHeadersMatchTrace is the tentpole acceptance check: the
// X-Cost-* headers on a real request must agree with the flight
// recorder's events for the same X-Trace-Id — the ledger and the
// timeline price the same work.
func TestCostHeadersMatchTrace(t *testing.T) {
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Recorder: fr})

	const traceID = "cost-e2e-1"
	body := ppmBody(t, testFrame(64, 48))
	req, err := http.NewRequest("POST", ts.URL+"/v1/segment?k=24&ratio=0.5&iters=3", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	costHeader := func(name string) int64 {
		t.Helper()
		v := resp.Header.Get(name)
		if v == "" {
			t.Fatalf("response missing %s header", name)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s = %q not an integer: %v", name, v, err)
		}
		return n
	}
	cpuNs := costHeader("X-Cost-Cpu-Ns")
	allocBytes := costHeader("X-Cost-Alloc-Bytes")
	estPJ, err := strconv.ParseFloat(resp.Header.Get("X-Cost-Est-Pj"), 64)
	if err != nil || estPJ <= 0 {
		t.Fatalf("X-Cost-Est-Pj = %q, want positive number", resp.Header.Get("X-Cost-Est-Pj"))
	}

	td := fr.Lookup(traceID)
	if td == nil {
		t.Fatal("trace not in the flight recorder")
	}
	// The trace's "cost" instant carries the exact snapshot the headers
	// were stamped from (minus encode time, charged after the headers).
	var costArgs map[string]any
	var sslicNs int64
	for _, ev := range td.Events {
		if ev.Name == "cost" {
			costArgs = ev.Args
		}
		if ev.Track == "sslic" {
			sslicNs += int64(ev.Dur)
		}
	}
	if costArgs == nil {
		t.Fatal("trace has no cost instant")
	}
	if got := costArgs["cpu_ns"].(int64); got != cpuNs {
		t.Fatalf("cost instant cpu_ns = %d, header = %d", got, cpuNs)
	}
	if got := costArgs["alloc_bytes"].(int64); got != allocBytes {
		t.Fatalf("cost instant alloc_bytes = %d, header = %d", got, allocBytes)
	}
	if got := costArgs["est_pj"].(float64); math.Abs(got-estPJ) > 1 {
		t.Fatalf("cost instant est_pj = %g, header = %g", got, estPJ)
	}
	// The charged CPU time is the summed phase times, which the sslic
	// track's events also cover: the two views must agree within 10%.
	if sslicNs == 0 {
		t.Fatal("no sslic events in trace")
	}
	ratio := float64(cpuNs) / float64(sslicNs)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("header cpu %dns vs trace sslic %dns: ratio %.3f outside [0.9, 1.1]",
			cpuNs, sslicNs, ratio)
	}
	// Alloc covers at least decode planes (3×W×H) + label map (4×W×H).
	if want := int64(7 * 64 * 48); allocBytes < want {
		t.Fatalf("alloc = %d, want >= %d (decode planes + label map)", allocBytes, want)
	}
}

// TestErrorResponsesCarryTraceAndCost is satellite 2: rejections are
// the hardest requests to debug, so they too must name their trace and
// whatever cost they did accrue.
func TestErrorResponsesCarryTraceAndCost(t *testing.T) {
	frame := ppmBody(t, testFrame(32, 24))

	t.Run("draining 503", func(t *testing.T) {
		fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Recorder: fr})
		s.Drain()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/segment?k=8", bytes.NewReader(frame))
		req.Header.Set("X-Trace-Id", "drain-trace-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != "drain-trace-1" {
			t.Fatalf("drain 503 X-Trace-Id = %q, want the request's ID", got)
		}
		if fr.Lookup("drain-trace-1") == nil {
			t.Fatal("drain rejection's trace not retained")
		}
	})

	t.Run("shed 503", func(t *testing.T) {
		fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Recorder: fr, DegradeInterval: -1})
		s.Degrade().Pin(degrade.Shed)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/segment?k=8", bytes.NewReader(frame))
		req.Header.Set("X-Trace-Id", "shed-trace-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != "shed-trace-1" {
			t.Fatalf("shed 503 X-Trace-Id = %q", got)
		}
	})

	t.Run("bad request 400 keeps decode cost", func(t *testing.T) {
		fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
		_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Recorder: fr})
		// Valid frame, K beyond the frame's pixel count: decode
		// happened, then parameter validation failed — the decode
		// charge must still be reported.
		req, _ := http.NewRequest("POST", ts.URL+"/v1/segment?k=100000", bytes.NewReader(frame))
		req.Header.Set("X-Trace-Id", "bad-trace-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != "bad-trace-1" {
			t.Fatalf("400 X-Trace-Id = %q", got)
		}
		if resp.Header.Get("X-Cost-Decode-Ns") == "" || resp.Header.Get("X-Cost-Alloc-Bytes") == "" {
			t.Fatalf("400 after decode lost its cost headers: %+v", resp.Header)
		}
	})
}

// TestSLOBurnEndToEnd drives the full burn path: a latency objective no
// real request can meet, windows closed manually, and then asserts the
// error budget drains, the burn feeds the degrade signal, and a pprof
// bundle is auto-captured with the burning objective as its reason.
func TestSLOBurnEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2,
		DegradeInterval: -1, // windows closed manually below
		SLOObjectives: []slo.Objective{
			{Name: "p99-latency", Kind: slo.KindLatency, Threshold: time.Nanosecond, Budget: 0.01},
		},
		SLOFastWindow: 1, SLOSlowWindow: 2,
		SLOBurnThreshold:   2,
		ProfileCPUDuration: 5 * time.Millisecond,
	})

	sig := s.SampleSignals() // seed the engine's baseline
	if sig.BurnRate != 0 {
		t.Fatalf("burn before any traffic = %g", sig.BurnRate)
	}

	frame := ppmBody(t, testFrame(48, 36))
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/segment?k=16&iters=2", "", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d", i, resp.StatusCode)
		}
	}

	// Closing the window sees 4 requests all slower than 1ns: burn
	// 100/budget, over threshold — the degrade signal carries it and
	// the capturer fires.
	sig = s.SampleSignals()
	if sig.BurnRate < 2 {
		t.Fatalf("burn after storm = %g, want >= threshold 2", sig.BurnRate)
	}

	st := s.SLOEngine().Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %+v", st.Objectives)
	}
	obj := st.Objectives[0]
	if obj.BudgetRemaining >= 1 {
		t.Fatalf("budget remaining = %g, want < 1 after storm", obj.BudgetRemaining)
	}
	if !obj.Alerting {
		t.Fatal("objective not alerting after threshold crossing")
	}

	// /debug/slo serves the same state.
	rec := httptest.NewRecorder()
	slo.Handler(s.SLOEngine()).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	var doc slo.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/slo not JSON: %v", err)
	}
	if len(doc.Objectives) != 1 || doc.Objectives[0].BudgetRemaining >= 1 {
		t.Fatalf("/debug/slo = %s", rec.Body.String())
	}

	// The burn-triggered capture runs async; wait for the bundle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if bs := s.Profiles().Bundles(); len(bs) > 0 {
			if bs[0].Reason != "burn:p99-latency" {
				t.Fatalf("bundle reason = %q, want burn:p99-latency", bs[0].Reason)
			}
			if len(bs[0].CPU) == 0 || len(bs[0].Heap) == 0 {
				t.Fatalf("bundle missing profiles")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no profile bundle captured after burn threshold crossing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// More bad windows with BurnHigh wired through: the degrade
	// controller steps up on the SLO signal alone.
	ctl := degrade.New(degrade.Config{StepUpHold: 1, BurnHigh: 2})
	if lvl := ctl.Tick(sig); lvl != degrade.HalfIters {
		t.Fatalf("degrade level on burn signal = %v, want half-iters", lvl)
	}
}

// TestCloseWaitsForBurnCapture: a burn-triggered profile capture that
// is still sampling the CPU when Close is called stores its bundle
// before Close returns, so its goroutine does not outlive the server.
func TestCloseWaitsForBurnCapture(t *testing.T) {
	s, err := New(Config{
		Workers: 1, QueueDepth: 2,
		DegradeInterval: -1,
		SLOObjectives: []slo.Objective{
			{Name: "p99-latency", Kind: slo.KindLatency, Threshold: time.Nanosecond, Budget: 0.01},
		},
		SLOFastWindow: 1, SLOSlowWindow: 2,
		SLOBurnThreshold:   2,
		ProfileCPUDuration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SampleSignals() // seed the engine
	frame := ppmBody(t, testFrame(48, 36))
	for i := 0; i < 4; i++ {
		if rec := serveSegment(s.Handler(), context.Background(), "k=16&iters=2", "", "", frame); rec.Code != http.StatusOK {
			t.Fatalf("request %d status %d", i, rec.Code)
		}
	}
	if sig := s.SampleSignals(); sig.BurnRate < 2 {
		t.Fatalf("burn = %g, want >= threshold 2", sig.BurnRate)
	}
	s.Close()
	if n := len(s.Profiles().Bundles()); n != 1 {
		t.Fatalf("%d profile bundles after Close, want the burn capture's 1", n)
	}
}
