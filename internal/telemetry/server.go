package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerConfig configures the telemetry HTTP server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":9090" or "127.0.0.1:0".
	Addr string
	// Registry backs /metrics; required.
	Registry *Registry
	// Recorder, when set, backs /debug/trace and /debug/traces so stored
	// flight-recorder traces are fetchable by ID.
	Recorder *FlightRecorder
	// SLO, when set, is mounted at /debug/slo (the slo package's
	// Handler — an http.Handler field keeps the import direction
	// telemetry ← slo).
	SLO http.Handler
	// Profiles, when set, is mounted at /debug/profiles
	// (ProfilesHandler over a Capturer).
	Profiles http.Handler
	// Streams, when set, is mounted at /debug/streams (the quality
	// tracker's per-stream introspection JSON; same import-direction
	// trick as SLO).
	Streams http.Handler
	// Tenants, when set, is mounted at /debug/tenants (the server's
	// per-tenant admission/quota/breaker health JSON).
	Tenants http.Handler
	// Logger, when set, logs server lifecycle events under the
	// "telemetry" component.
	Logger *Logger
}

// Server serves the observability endpoints:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       200 "ok" liveness probe
//	/debug/vars    the standard library's expvar JSON (cmdline, memstats)
//	/debug/pprof/  the full net/http/pprof suite (profile, heap, trace, …)
//	/debug/traces  recent flight-recorder traces (JSON summaries)
//	/debug/trace   one stored trace by ?id=, as Chrome trace_event JSON
//	               (loadable in chrome://tracing / Perfetto) or ?format=json
//	/debug/slo     SLO objectives, error budgets and burn rates (JSON),
//	               when an engine is wired
//	/debug/streams per-stream segmentation health: warm age, degrade
//	               level history, delta hit ratio, live quality proxies
//	               and the quality floor, when a tracker is wired
//	/debug/profiles  captured pprof bundles (list / fetch / on-demand
//	               capture), when a capturer is wired
//
// so a live stream can be scraped, CPU-profiled and trace-replayed at
// the same time.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// NewServer binds the listen address and returns a server ready to
// Serve. Binding eagerly (instead of inside Serve) lets callers use
// ":0" and read the resolved Addr before any request arrives.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: server needs a registry")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if cfg.Recorder != nil {
		mux.Handle("/debug/trace", TraceHandler(cfg.Recorder))
		mux.Handle("/debug/traces", TraceListHandler(cfg.Recorder))
	}
	if cfg.SLO != nil {
		mux.Handle("/debug/slo", cfg.SLO)
	}
	if cfg.Profiles != nil {
		mux.Handle("/debug/profiles", cfg.Profiles)
	}
	if cfg.Streams != nil {
		mux.Handle("/debug/streams", cfg.Streams)
	}
	if cfg.Tenants != nil {
		mux.Handle("/debug/tenants", cfg.Tenants)
	}
	// The pprof handlers are registered explicitly: this mux is private,
	// so nothing leaks onto http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	if cfg.Logger != nil {
		cfg.Logger.Component("telemetry").Info("telemetry server listening", "addr", s.Addr())
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve starts serving in a background goroutine and returns
// immediately.
func (s *Server) Serve() {
	go s.srv.Serve(s.ln)
}

// Close shuts the server down, allowing a short grace period for
// in-flight scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
