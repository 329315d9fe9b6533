package metrics

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the live introspection endpoint of a running
// simulation:
//
//	/debug/pprof/...  Go runtime profiles (CPU, heap, goroutine, ...)
//	/debug/vars       expvar (cmdline, memstats, anything published)
//	/debug/shadow     the latest published Report, the same JSON schema
//	                  -metrics writes at the end of a run (503 until
//	                  the first one is published)
//
// It owns a dedicated mux (nothing leaks onto http.DefaultServeMux),
// reports the address it actually bound (so ":0" works in tests), and can
// be shut down.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug binds addr (e.g. "localhost:6060", or ":0" for an ephemeral
// port) and serves the debug mux in a background goroutine. col supplies
// the /debug/shadow report and may be nil (the endpoint then never has
// one). Close the returned server to release the listener.
func ServeDebug(addr string, col *Collector) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if col != nil {
		col.served.Store(true)
	}
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
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Publish installs the collector's report at cycle now, naming engine, as
// the latest one Live returns. The simulation loop calls it every few
// hundred requests. The report is a copy of the single-writer state,
// built on the caller's goroutine and never written after the atomic
// swap, so readers never race the collector. Building one costs time
// linear in the series' windows, so Publish does nothing until ServeDebug
// serves c: without a reader, a run pays nothing for it.
func (c *Collector) Publish(now int64, engine string) {
	if c == nil || !c.served.Load() {
		return
	}
	r := c.Report(now, nil)
	r.Engine = engine
	c.live.Store(r)
}

// Live returns the latest published report (nil before the first
// Publish). Safe from any goroutine; the caller must not modify it.
func (c *Collector) Live() *Report {
	if c == nil {
		return nil
	}
	return c.live.Load()
}

// Addr returns the address the server actually bound.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
