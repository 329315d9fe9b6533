// Command shadowd is the oblivious key-value server: a concurrent HTTP
// front end (GET/PUT/DELETE /kv/<key>) whose every operation is one real
// ORAM access through the shadow-block engine's multi-requestor queue,
// over really encrypted blocks in a pluggable storage backend. Whoever
// watches the backend — process memory, a file, or a latency-injected
// "remote" store — sees only bucket reads and writes of indistinguishable
// ciphertexts, never which key was touched.
//
//	shadowd -addr :8080 -backend mem
//	shadowd -addr :8080 -backend file -path /tmp/tree.dat
//	shadowd -addr :8080 -backend remote -remote-latency 200us -debug :6060
//
// The -debug mux adds /debug/pprof, /debug/vars and /debug/shadow (the
// live metrics report). /statsz on the main address serves the service
// stats: p50/p99 latency and throughput from the metrics histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shadowblock/internal/crypt"
	"shadowblock/internal/debugsrv"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "HTTP listen address (\":0\" picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file (for scripts driving \":0\")")
		backend   = flag.String("backend", "mem", "storage backend: mem, file or remote")
		path      = flag.String("path", "", "file backend: path of the bucket store")
		remoteLat = flag.Duration("remote-latency", 200*time.Microsecond, "remote backend: injected wall-clock delay per bucket op")
		level     = flag.Int("l", 12, "ORAM tree leaf level L (2^(L+2) data blocks)")
		debugAddr = flag.String("debug", "", "serve the debug mux (pprof, /debug/vars, /debug/shadow) on this address")
	)
	flag.Parse()

	// Bind and publish the address before the (possibly slow) ORAM init:
	// a latency-injected backend pays its delay on every bucket write of
	// the initial tree population, and scripts driving ":0" need the
	// addr-file as soon as possible. Connections arriving during init sit
	// in the accept backlog until Serve starts.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("shadowd: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("shadowd: %v", err)
		}
	}

	back, err := buildBackend(*backend, *path, *remoteLat, *level)
	if err != nil {
		log.Fatalf("shadowd: %v", err)
	}
	srv, err := newServer(serverConfig{L: *level, Backend: back})
	if err != nil {
		log.Fatalf("shadowd: %v", err)
	}

	if *debugAddr != "" {
		ds, err := debugsrv.Serve(*debugAddr, srv.mc)
		if err != nil {
			log.Fatalf("shadowd: debug mux: %v", err)
		}
		defer ds.Close()
		log.Printf("debug mux on http://%s/debug/", ds.Addr())
	}

	log.Printf("shadowd listening on http://%s (backend=%s L=%d)", ln.Addr(), *backend, *level)

	hs := &http.Server{Handler: srv.handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("shadowd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	err = shutdown(hs, srv)
	snap := srv.stats()
	log.Printf("served %d reads / %d writes / %d deletes (%d misses, %d errors) at %.0f req/s",
		snap.Reads, snap.Writes, snap.Deletes, snap.Misses, snap.Errors, snap.ThroughputRPS)
	log.Printf("GET  wall p50 %s p99 %s", time.Duration(snap.GetNanos.P50), time.Duration(snap.GetNanos.P99))
	log.Printf("PUT  wall p50 %s p99 %s", time.Duration(snap.PutNanos.P50), time.Duration(snap.PutNanos.P99))
	log.Printf("sim  forward p50 %d p99 %d cycles, complete p50 %d p99 %d cycles",
		snap.SimForward.P50, snap.SimForward.P99, snap.SimComplete.P50, snap.SimComplete.P99)
	if err != nil {
		log.Fatalf("shadowd: shutdown: %v", err)
	}
}

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 5 * time.Second

// shutdown stops hs accepting and lets the requests it is serving finish,
// for at most drainTimeout, then closes srv: its serving loop stops and the
// storage backend writes back what it buffers and closes. http.Server.Close
// in place of the drain would cut requests already accepted.
func shutdown(hs *http.Server, srv *server) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildBackend constructs the selected store.Backend for an L-level tree
// with the default block geometry.
func buildBackend(kind, path string, lat time.Duration, level int) (store.Backend, error) {
	cfg := oram.Default()
	cfg.L = level
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		return nil, err
	}
	sealed := crypt.NonceSize + cfg.BlockBytes
	switch kind {
	case "mem":
		return store.NewMem(geo.NumBuckets(), cfg.Z), nil
	case "file":
		if path == "" {
			return nil, fmt.Errorf("file backend needs -path")
		}
		return store.NewFile(path, geo.NumBuckets(), cfg.Z, sealed)
	case "remote":
		return store.NewLatency(store.NewMem(geo.NumBuckets(), cfg.Z), lat), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (mem, file or remote)", kind)
	}
}
