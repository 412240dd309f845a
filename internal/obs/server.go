package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Live observability server (the -serve flag and the job server's
// listener): while a process is up it exposes
//
//	GET /metrics          the registry snapshot, Prometheus text format
//	GET /runs             run progress as JSON (whatever the runs closure
//	                      returns, typically an engine.Progress)
//	GET /timeseries       the ring-buffer time-series sampler over the
//	                      registry (JSON; bounded memory)
//	GET /healthz          liveness (the HTTP loop answers)
//	GET /readyz           readiness (the embedder's dependency checks)
//	GET /buildinfo        the binary's embedded build metadata
//	GET /debug/pprof/...  the standard Go profiling endpoints
//
// The server is deliberately decoupled from the engine: it serves a
// *Registry it is given and calls an opaque closure for /runs, so obs never
// imports engine (which imports obs). Shutdown is graceful — in-flight
// scrapes finish, the sampler goroutine stops — and is wired into the CLIs'
// Ctrl-C/-timeout paths.

// ServerConfig configures StartConfigured. Addr and Registry are required;
// everything else degrades gracefully when absent.
type ServerConfig struct {
	// Addr is the host:port to listen on (":0" picks a free port).
	Addr string
	// Registry backs /metrics and /timeseries.
	Registry *Registry
	// Runs, when set, is rendered as JSON by GET /runs.
	Runs func() any
	// Register, when set, may add handlers to the mux before serving starts
	// (how the job server layers /jobs onto the same listener).
	Register func(mux *http.ServeMux)
	// Logger, when set, wraps the whole mux in the request-logging
	// middleware (one structured line per request, trace ID included).
	Logger *slog.Logger
	// Ready supplies the /readyz dependency checks; nil degrades /readyz to
	// liveness.
	Ready func() []ReadyCheck
}

// Server is a running observability HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
	err chan error
	ts  *TimeSeries

	// Shutdown is idempotent: the first call drains the serve loop's error
	// exactly once, later calls return the remembered result instead of
	// blocking on an already-drained channel.
	downOnce sync.Once
	downErr  error
}

// StartConfigured starts the full observability surface described by cfg.
func StartConfigured(cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", cfg.Addr, err)
	}
	reg := cfg.Registry
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Too late for an error status; the scrape just truncates.
			return
		}
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var v any
		if cfg.Runs != nil {
			v = cfg.Runs()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	ts := NewTimeSeries(reg, DefaultTimeSeriesPeriod, DefaultTimeSeriesCap)
	mux.Handle("GET /timeseries", ts)
	mux.HandleFunc("GET /healthz", HealthzHandler())
	mux.HandleFunc("GET /readyz", ReadyzHandler(cfg.Ready))
	mux.HandleFunc("GET /buildinfo", BuildInfoHandler())
	if cfg.Register != nil {
		cfg.Register(mux)
	}
	// net/http/pprof registers on http.DefaultServeMux; route the standard
	// paths on our private mux instead so -serve does not leak handlers into
	// unrelated servers (and tests can run several servers side by side).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	var handler http.Handler = mux
	if cfg.Logger != nil {
		handler = LogRequests(cfg.Logger, mux)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		err: make(chan error, 1),
		ts:  ts,
	}
	go func() {
		err := s.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.err <- err
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// TimeSeries returns the server's registry sampler (never nil on a started
// server) — CLIs flush its final window, tests drive Sample directly.
func (s *Server) TimeSeries() *TimeSeries { return s.ts }

// Shutdown gracefully stops the server, waiting for in-flight requests up
// to the context deadline, and reports any serve-loop error. It is safe to
// call more than once — a CLI whose signal handler and deferred cleanup
// both shut the server down performs the stop exactly once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.downOnce.Do(func() {
		s.ts.Stop()
		if err := s.srv.Shutdown(ctx); err != nil {
			s.downErr = err
			return
		}
		s.downErr = <-s.err
	})
	return s.downErr
}
