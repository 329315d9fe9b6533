package metrics

import (
	"encoding/json"
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
//	/debug/shadow     JSON snapshot of the simulation: counters, queue
//	                  depth, per-channel utilisation, latency digests,
//	                  and the cycle-attribution ledger (LiveSnapshot)
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
// the /debug/shadow snapshot and may be nil (the endpoint then reports
// that metrics are disabled). Close the returned server to release the
// listener.
func ServeDebug(addr string, col *Collector) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/shadow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := col.Live()
		if snap == nil {
			_ = json.NewEncoder(w).Encode(map[string]any{
				"enabled": col != nil,
				"note":    "no snapshot published yet",
			})
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the address the server actually bound.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
