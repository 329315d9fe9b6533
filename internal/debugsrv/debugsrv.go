// Package debugsrv serves the live debug mux of the CLIs' -debug flag:
//
//	/debug/pprof/...  Go runtime profiles (CPU, heap, goroutine, ...)
//	/debug/vars       expvar (cmdline, memstats, anything published)
//	/debug/shadow     the latest published metrics.Report, the JSON
//	                  -metrics writes at the end of a run (503 until the
//	                  first one is published)
//
// net/http/pprof and expvar set up the profiler and the expvar registry
// in every binary that links them, so only the commands import this
// package; the simulator, the store and the benchmark link none of it.
package debugsrv

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"shadowblock/internal/metrics"
)

// Server owns a dedicated mux (nothing leaks onto http.DefaultServeMux),
// reports the address it bound (so ":0" works), and can be shut down.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. "localhost:6060", or ":0" for an ephemeral port)
// and serves the mux in a background goroutine. col supplies /debug/shadow
// and may be nil (the endpoint then never has one); serving it turns its
// live report on. Close the returned server to release the listener.
func Serve(addr string, col *metrics.Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	col.EnableLive()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/shadow", func(w http.ResponseWriter, _ *http.Request) {
		r := col.Live()
		if r == nil {
			http.Error(w, "no report published", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the address the server actually bound.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
