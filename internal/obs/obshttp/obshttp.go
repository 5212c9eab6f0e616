// Package obshttp serves a run's observability over HTTP: the
// recorder's metrics beside expvar and net/http/pprof. It is a package
// of its own so that the engines, which import obs, do not link
// net/http: its address parsing keeps a unique.Make map, whose
// clean-up allocates on every garbage collection, in every binary that
// links it.
package obshttp

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"macro3d/internal/obs"
)

// Handler returns the live inspection mux:
//
//	/metrics      Prometheus text exposition of the run's registry
//	/debug/vars   expvar (Go runtime memstats, cmdline)
//	/debug/pprof/ net/http/pprof profiles
//
// Valid on a nil Recorder (the metric endpoints expose an empty
// registry).
func Handler(r *obs.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Registry().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "macro3d observability\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running observability HTTP endpoint.
type Server struct {
	srv *http.Server
	url string

	closeOnce sync.Once
	closeErr  error
}

// Serve starts the inspection endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0" for an ephemeral port) and serves in a background
// goroutine until Close. The bound address is available from URL, so
// callers can print the endpoint even with port 0.
func Serve(r *obs.Recorder, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		srv: &http.Server{Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// URL returns the endpoint base URL, e.g. "http://127.0.0.1:9090".
func (s *Server) URL() string { return s.url }

// Close shuts the endpoint down, letting in-flight requests (e.g. a
// scraper mid-read of /metrics) finish within a short grace period
// before the listener is torn down hard. Idempotent: a teardown path
// may double-close; later calls do nothing and return the first call's
// result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			s.closeErr = s.srv.Close()
		}
	})
	return s.closeErr
}
