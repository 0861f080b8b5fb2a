package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sslic/internal/degrade"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/pipeline"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/tenant"
)

// contractReasons is every sslic_server_rejected_total reason the
// segment endpoint refuses with.
var contractReasons = []string{
	"draining", "shed", "breaker", "bad_request", "too_large", "fault",
	"saturated", "stuck", "backend_panic", "deadline", "canceled",
	"internal", "rate_limited", "tenant_inflight", "tenant_queue_full",
}

// rejections reads every reason's sslic_server_rejected_total series.
func rejections(s *Server) map[string]float64 {
	out := make(map[string]float64, len(contractReasons))
	for _, r := range contractReasons {
		out[r] = s.Registry().Counter("sslic_server_rejected_total",
			"Requests refused, by reason.", telemetry.Label{Name: "reason", Value: r}).Value()
	}
	return out
}

// serveSegment sends one segment request straight through h.
func serveSegment(h http.Handler, ctx context.Context, query, key, traceID string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/segment?"+query, bytes.NewReader(body)).WithContext(ctx)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for " + what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedRequests holds background requests on a blockGate until
// release, which opens the gate and checks every one was served.
type parkedRequests struct {
	t     *testing.T
	gate  *blockGate
	once  sync.Once
	codes []chan int
}

func parkOn(t *testing.T, gate *blockGate) *parkedRequests {
	p := &parkedRequests{t: t, gate: gate}
	// On a failed row the gate still opens before the server closes.
	t.Cleanup(p.open)
	return p
}

func (p *parkedRequests) open() { p.once.Do(func() { close(p.gate.release) }) }

// start sends one request in the background and waits until cond.
func (p *parkedRequests) start(h http.Handler, key, query string, body []byte, what string, cond func() bool) {
	p.t.Helper()
	done := make(chan int, 1)
	p.codes = append(p.codes, done)
	go func() { done <- serveSegment(h, context.Background(), query, key, "", body).Code }()
	waitUntil(p.t, what, cond)
}

func (p *parkedRequests) release() {
	p.open()
	for i, c := range p.codes {
		if code := <-c; code != http.StatusOK {
			p.t.Errorf("parked request %d answered %d, want 200", i, code)
		}
	}
}

type contractRow struct {
	name string
	cfg  Config
	key  string // X-API-Key
	// query defaults to contractQuery; body to the 64x48 frame.
	query string
	body  []byte
	ctx   context.Context
	// setup runs on the fresh server before the measured request; the
	// func it returns (if any) runs after it.
	setup func(t *testing.T, s *Server, h http.Handler) func()

	code   int
	reason string // "" for a served frame
	retry  string // "": no Retry-After; "range": within [1, 30]; else exact
	level  string // X-Degradation-Level; "" means "0"
	format string // served frames: the format= value
	warm   bool   // served frames: X-Sslic-Warm, and a "prev" delta base
}

const contractQuery = "k=24&iters=3"

// TestSegmentResponseContract pins what /v1/segment answers for every
// refusal reason a test can reach and for a served frame in every
// format: the status, exactly one rejected_total increment, where
// Retry-After is sent, the X-* headers, and that the X-Cost-* and
// X-Quality-* headers carry the trace's cost and quality instants
// field for field.
func TestSegmentResponseContract(t *testing.T) {
	frame := ppmBody(t, testFrame(64, 48))
	panics := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		panic("poisoned frame")
	}
	fails := func(err error) pipeline.SegmentFunc {
		return func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
			return nil, err
		}
	}
	waitsOut := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	inject := func(point string) func(t *testing.T, s *Server, h http.Handler) func() {
		return func(t *testing.T, s *Server, h http.Handler) func() {
			inj := faults.New(7)
			inj.Set(point, faults.PointConfig{Probability: 1, ErrMsg: "contract"})
			faults.Enable(inj)
			t.Cleanup(faults.Disable)
			return nil
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	acme := func(c tenant.Config) []tenant.Config {
		c.Key = "acme"
		return []tenant.Config{c}
	}
	satGate, inflightGate, queueGate := newBlockGate(), newBlockGate(), newBlockGate()

	rows := []contractRow{
		{name: "draining", code: 503, reason: "draining", retry: "range",
			setup: func(t *testing.T, s *Server, h http.Handler) func() { s.Drain(); return nil }},
		{name: "shed", code: 503, reason: "shed", retry: "range", level: "4",
			setup: func(t *testing.T, s *Server, h http.Handler) func() { s.Degrade().Pin(degrade.Shed); return nil }},
		{name: "breaker", cfg: Config{Segment: panics, BreakerThreshold: 1, BreakerCooldown: time.Hour},
			code: 503, reason: "breaker", retry: "range",
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				if c := serveSegment(h, context.Background(), contractQuery, "", "", frame).Code; c != 503 {
					t.Fatalf("opening panic answered %d, want 503", c)
				}
				return nil
			}},
		{name: "bad_request/parse", query: "k=abc", code: 400, reason: "bad_request"},
		{name: "bad_request/decode", body: []byte("not an image"), code: 400, reason: "bad_request"},
		{name: "bad_request/validate", query: "k=100000", code: 400, reason: "bad_request"},
		{name: "too_large/body", cfg: Config{MaxBodyBytes: 1 << 12}, code: 413, reason: "too_large"},
		{name: "too_large/pixels", cfg: Config{MaxPixels: 32 * 32}, code: 413, reason: "too_large"},
		{name: "saturated", cfg: Config{Workers: 1, QueueDepth: 1, Segment: satGate.segment},
			code: 429, reason: "saturated", retry: "range",
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				p := parkOn(t, satGate)
				p.start(h, "", contractQuery, frame, "worker occupancy", func() bool { return satGate.entered.Load() >= 1 })
				p.start(h, "", contractQuery, frame, "queue occupancy", func() bool { return s.pool.Queued() >= 1 })
				return p.release
			}},
		{name: "deadline", cfg: Config{Segment: waitsOut, RequestTimeout: 30 * time.Millisecond, MaxTimeout: time.Second},
			code: 504, reason: "deadline"},
		{name: "stuck", cfg: Config{Segment: fails(fmt.Errorf("backend: %w", pipeline.ErrWorkerStuck))},
			code: 504, reason: "stuck"},
		{name: "backend_panic", cfg: Config{Segment: panics}, code: 503, reason: "backend_panic", retry: "range"},
		{name: "fault/decode", code: 503, reason: "fault", retry: "range", setup: inject(faults.PointDecode)},
		{name: "fault/pool", cfg: Config{Retries: -1}, code: 503, reason: "fault", retry: "range", setup: inject(faults.PointPoolRun)},
		{name: "canceled", ctx: canceled, code: 499, reason: "canceled"},
		{name: "internal", cfg: Config{Segment: fails(errors.New("backend exploded"))}, code: 500, reason: "internal"},

		{name: "rate_limited", cfg: Config{Tenants: acme(tenant.Config{Rate: 0.25, Burst: 1})}, key: "acme",
			code: 429, reason: "rate_limited", retry: "4", // one token at 0.25/s: 4 s
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				if c := serveSegment(h, context.Background(), contractQuery, "acme", "", frame).Code; c != 200 {
					t.Fatalf("first request answered %d, want 200", c)
				}
				return nil
			}},
		{name: "tenant_inflight", cfg: Config{Segment: inflightGate.segment, Tenants: acme(tenant.Config{MaxInFlight: 1})}, key: "acme",
			code: 429, reason: "tenant_inflight", retry: "range",
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				p := parkOn(t, inflightGate)
				p.start(h, "acme", contractQuery, frame, "backend entry", func() bool { return inflightGate.entered.Load() >= 1 })
				return p.release
			}},
		{name: "tenant_queue_full", cfg: Config{Workers: 1, QueueDepth: 1, Segment: queueGate.segment, Tenants: acme(tenant.Config{MaxQueue: 1})}, key: "acme",
			code: 429, reason: "tenant_queue_full", retry: "range",
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				p := parkOn(t, queueGate)
				p.start(h, "acme", contractQuery, frame, "worker occupancy", func() bool { return queueGate.entered.Load() >= 1 })
				p.start(h, "acme", contractQuery, frame, "pool queue occupancy", func() bool { return s.pool.Queued() >= 1 })
				p.start(h, "acme", contractQuery, frame, "a fair-queue waiter", func() bool {
					for _, snap := range s.Tenants().SnapshotAll() {
						if snap.Key == "acme" {
							return snap.Queued == 1
						}
					}
					return false
				})
				return p.release
			}},
		{name: "fault/admission", cfg: Config{Tenants: acme(tenant.Config{})}, key: "acme",
			code: 503, reason: "fault", retry: "range", setup: inject(faults.PointTenantAdmit)},

		{name: "ok/labels", code: 200, format: "labels"},
		{name: "ok/slbl", code: 200, format: "slbl"},
		{name: "ok/slbl-rle", code: 200, format: "slbl-rle"},
		{name: "ok/overlay", code: 200, format: "overlay"},
		{name: "ok/mean", code: 200, format: "mean"},
		{name: "ok/slbl-delta", code: 200, format: "slbl-delta", warm: true,
			query: contractQuery + "&stream=cam0&format=slbl-delta",
			setup: func(t *testing.T, s *Server, h http.Handler) func() {
				rec := serveSegment(h, context.Background(), contractQuery+"&stream=cam0&format=slbl-delta", "", "", frame)
				if rec.Code != 200 || rec.Header().Get("X-Wire-Base") != "empty" {
					t.Fatalf("first delta frame: %d, X-Wire-Base %q", rec.Code, rec.Header().Get("X-Wire-Base"))
				}
				return nil
			}},
		{name: "ok/tenant", cfg: Config{Tenants: acme(tenant.Config{})}, key: "acme", code: 200, format: "slbl"},
	}

	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fr := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Capacity: 16}, nil)
			cfg := row.cfg
			cfg.Recorder = fr
			cfg.DegradeInterval = -1
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			h := s.Handler()

			var after func()
			if row.setup != nil {
				after = row.setup(t, s, h)
			}
			query, body, ctx := row.query, row.body, row.ctx
			if query == "" {
				query = contractQuery
				if row.format != "" {
					query += "&format=" + row.format
				}
			}
			if body == nil {
				body = frame
			}
			if ctx == nil {
				ctx = context.Background()
			}
			traceID := "contract-" + strconv.Itoa(i)
			before := rejections(s)
			rec := serveSegment(h, ctx, query, row.key, traceID, body)
			moved := rejections(s)
			if after != nil {
				after()
			}
			if rec.Code != row.code {
				t.Fatalf("status %d, want %d (%s)", rec.Code, row.code, strings.TrimSpace(rec.Body.String()))
			}
			for _, r := range contractReasons {
				want := 0.0
				if r == row.reason {
					want = 1
				}
				if d := moved[r] - before[r]; d != want {
					t.Errorf("rejected_total{reason=%q} moved by %g, want %g", r, d, want)
				}
			}
			checkContractHeaders(t, row, rec.Header(), fr.Lookup(traceID), traceID)
		})
	}
}

func checkContractHeaders(t *testing.T, row contractRow, h http.Header, td *telemetry.TraceData, traceID string) {
	t.Helper()
	served := row.reason == ""
	tenancy := len(row.cfg.Tenants) > 0

	ra := h.Get("Retry-After")
	switch row.retry {
	case "":
		if ra != "" {
			t.Errorf("Retry-After %q on a response that sends none", ra)
		}
	case "range":
		if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 30 {
			t.Errorf("Retry-After %q, want an integer in [1, 30]", ra)
		}
	default:
		if ra != row.retry {
			t.Errorf("Retry-After %q, want %q", ra, row.retry)
		}
	}
	level := row.level
	if level == "" {
		level = "0"
	}
	if got := h.Get("X-Degradation-Level"); got != level {
		t.Errorf("X-Degradation-Level %q, want %q", got, level)
	}
	if got := h.Get("X-Trace-Id"); got != traceID {
		t.Errorf("X-Trace-Id %q, want %q", got, traceID)
	}
	wantTenant, wantClass := "", ""
	if tenancy {
		wantTenant, wantClass = "acme", "standard"
	}
	if h.Get("X-Tenant") != wantTenant || h.Get("X-Tenant-Class") != wantClass {
		t.Errorf("X-Tenant %q / X-Tenant-Class %q, want %q / %q",
			h.Get("X-Tenant"), h.Get("X-Tenant-Class"), wantTenant, wantClass)
	}

	// The X-* header set, cost and quality fields aside (their presence
	// follows the trace instants, checked below).
	want := []string{"X-Degradation-Level", "X-Trace-Id"}
	if tenancy {
		want = append(want, "X-Tenant", "X-Tenant-Class")
	}
	if served {
		want = append(want, "X-Sslic-Seconds", "X-Sslic-Warm")
		if strings.HasPrefix(row.format, "slbl") {
			want = append(want, "X-Wire-Format")
		}
		if row.format == "slbl-delta" {
			want = append(want, "X-Wire-Base")
		}
	}
	var got []string
	for name := range h {
		switch {
		case strings.HasPrefix(name, "X-Cost-"):
			switch name {
			case "X-Cost-Cpu-Ns", "X-Cost-Alloc-Bytes", "X-Cost-Queue-Ns", "X-Cost-Decode-Ns":
				if n, err := strconv.ParseInt(h.Get(name), 10, 64); err != nil || n <= 0 {
					t.Errorf("%s = %q, want a positive integer (zero fields are omitted)", name, h.Get(name))
				}
			case "X-Cost-Est-Pj":
				if f, err := strconv.ParseFloat(h.Get(name), 64); err != nil || f <= 0 {
					t.Errorf("%s = %q, want a positive number (zero fields are omitted)", name, h.Get(name))
				}
			default:
				t.Errorf("unexpected cost header %s", name)
			}
		case strings.HasPrefix(name, "X-Quality-"):
			if !served {
				t.Errorf("refusal carries %s", name)
			}
		case name == "X-Content-Type-Options": // net/http's, on error bodies
		case strings.HasPrefix(name, "X-"):
			got = append(got, name)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("X-* headers %v, want %v", got, want)
	}

	if td == nil {
		t.Fatal("trace not retained")
	}
	var cost, qual map[string]any
	for _, ev := range td.Events {
		switch ev.Name {
		case "cost":
			cost = ev.Args
		case "quality":
			qual = ev.Args
		}
	}
	if !served {
		if td.Status != "error" {
			t.Errorf("refusal trace status %q, want error", td.Status)
		}
		if cost != nil || qual != nil {
			t.Errorf("refusal trace carries a cost (%v) or quality (%v) instant", cost, qual)
		}
		return
	}

	if td.Status != "ok" {
		t.Errorf("trace status %q (%s), want ok", td.Status, td.Err)
	}
	if got := h.Get("X-Sslic-Warm"); got != strconv.FormatBool(row.warm) {
		t.Errorf("X-Sslic-Warm %q, want %v", got, row.warm)
	}
	if sec, err := strconv.ParseFloat(h.Get("X-Sslic-Seconds"), 64); err != nil || sec <= 0 {
		t.Errorf("X-Sslic-Seconds %q, want a positive number", h.Get("X-Sslic-Seconds"))
	}
	contentType := map[string]string{
		"labels":     "application/octet-stream",
		"slbl":       "application/x-sslic-labels",
		"slbl-rle":   "application/x-sslic-labels-rle",
		"slbl-delta": "application/x-sslic-labels-delta",
		"overlay":    "image/x-portable-pixmap",
		"mean":       "image/x-portable-pixmap",
	}[row.format]
	if got := h.Get("Content-Type"); got != contentType {
		t.Errorf("Content-Type %q, want %q", got, contentType)
	}
	if strings.HasPrefix(row.format, "slbl") && h.Get("X-Wire-Format") != row.format {
		t.Errorf("X-Wire-Format %q, want %q", h.Get("X-Wire-Format"), row.format)
	}
	if row.format == "slbl-delta" {
		base := "empty"
		if row.warm {
			base = "prev"
		}
		if got := h.Get("X-Wire-Base"); got != base {
			t.Errorf("X-Wire-Base %q, want %q", got, base)
		}
	}

	if cost == nil || qual == nil {
		t.Fatalf("served trace lacks a cost (%v) or quality (%v) instant", cost, qual)
	}
	for _, f := range []struct{ header, arg string }{
		{"X-Cost-Cpu-Ns", "cpu_ns"},
		{"X-Cost-Alloc-Bytes", "alloc_bytes"},
		{"X-Cost-Queue-Ns", "queue_wait_ns"},
		{"X-Cost-Decode-Ns", "decode_ns"},
	} {
		v := cost[f.arg].(int64)
		want := ""
		if v > 0 {
			want = strconv.FormatInt(v, 10)
		}
		if got := h.Get(f.header); got != want {
			t.Errorf("%s %q, cost instant %s = %d", f.header, got, f.arg, v)
		}
	}
	estPJ := cost["est_pj"].(float64)
	if estPJ <= 0 || h.Get("X-Cost-Est-Pj") != strconv.FormatFloat(estPJ, 'f', 0, 64) {
		t.Errorf("X-Cost-Est-Pj %q, cost instant est_pj = %g", h.Get("X-Cost-Est-Pj"), estPJ)
	}
	for _, name := range []string{"X-Cost-Cpu-Ns", "X-Cost-Decode-Ns"} {
		if h.Get(name) == "" {
			t.Errorf("served frame without %s", name)
		}
	}

	churn := qual["churn"].(float64)
	wantQual := map[string]string{
		"X-Quality-Empty-Clusters":   strconv.Itoa(qual["empty_clusters"].(int)),
		"X-Quality-Boundary-Density": strconv.FormatFloat(qual["boundary_density"].(float64), 'f', 6, 64),
		"X-Quality-Residual":         strconv.FormatFloat(qual["residual"].(float64), 'g', -1, 64),
	}
	if churn >= 0 {
		wantQual["X-Quality-Churn"] = strconv.FormatFloat(churn, 'f', 6, 64)
	}
	if row.warm != (churn >= 0) {
		t.Errorf("quality churn %g: a frame has a churn exactly when it has a delta base", churn)
	}
	for name := range h {
		if strings.HasPrefix(name, "X-Quality-") {
			if _, ok := wantQual[name]; !ok {
				t.Errorf("unexpected quality header %s = %q", name, h.Get(name))
			}
		}
	}
	for name, v := range wantQual {
		if got := h.Get(name); got != v {
			t.Errorf("%s %q, quality instant says %q", name, got, v)
		}
	}
}
