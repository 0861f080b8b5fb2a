package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestServer(t *testing.T) (*Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	srv, reg := startTestServer(t)
	reg.Counter("demo_frames_total", "Frames.").Add(3)
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "demo_frames_total 3\n") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE demo_frames_total counter") {
		t.Fatalf("/metrics missing TYPE line:\n%s", body)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d, body %q", code, truncate(body))
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, body %q", code, truncate(body))
	}

	// A short trace proves the pprof suite is usable while metrics are
	// scraped (acceptance: /metrics and profiling simultaneously).
	code, _ = get(t, base+"/debug/pprof/trace?seconds=0.05")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/trace = %d", code)
	}
}

func TestServerContentType(t *testing.T) {
	srv, _ := startTestServer(t)
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q", ct)
	}
}

func TestServerRequiresRegistry(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatalf("nil registry accepted")
	}
}

func TestServerLiveUpdates(t *testing.T) {
	srv, reg := startTestServer(t)
	c := reg.Counter("live_total", "")
	base := "http://" + srv.Addr()
	for i := 1; i <= 3; i++ {
		c.Inc()
		_, body := get(t, base+"/metrics")
		want := fmt.Sprintf("live_total %d\n", i)
		if !strings.Contains(body, want) {
			t.Fatalf("scrape %d missing %q", i, want)
		}
	}
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}
