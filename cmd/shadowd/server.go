package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"shadowblock/internal/kv"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
)

// maxBatch is the most requests the serving loop presents at one
// simulated cycle.
const maxBatch = 16

// server is kv.Service over HTTP: requests funnel into a single serving
// goroutine that presents each batch to the service at one simulated
// cycle, in arrival order, so a replay of the same arrival sequence
// reproduces the same simulated timeline bit for bit. Not every op is an
// ORAM access (kv.Service says which are not, and what that leaks).
type server struct {
	svc *kv.Service

	reqCh chan *request
	done  chan struct{}
	wg    sync.WaitGroup

	// mu guards everything below plus svc, which the serving loop
	// mutates; the stats endpoint snapshots under it.
	mu      sync.Mutex
	now     int64 // simulated presentation cycle
	started time.Time
	ops     [3]uint64 // served ops by opKind
	misses  uint64
	errors  uint64
	wall    [2]*metrics.Histogram // wall-clock ns per served GET, and per PUT or DELETE
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

type request struct {
	op    opKind
	key   string
	value []byte
	resp  chan response
}

type response struct {
	value []byte
	found bool
	err   error
}

var errShuttingDown = errors.New("shadowd: shutting down")

// newServer opens the L-level kv.Service over backend and starts the
// serving loop.
func newServer(level int, backend kv.BackendFunc) (*server, error) {
	svc, err := kv.Open(level, backend)
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:     svc,
		reqCh:   make(chan *request, 4*maxBatch),
		done:    make(chan struct{}),
		started: time.Now(),
		wall:    [2]*metrics.Histogram{metrics.NewHistogram(), metrics.NewHistogram()},
	}
	s.wg.Add(1)
	go s.serveLoop()
	return s, nil
}

// Close stops the serving loop and releases the storage backend. Requests
// still queued error out with errShuttingDown.
func (s *server) Close() error {
	close(s.done)
	s.wg.Wait()
	return s.svc.Close()
}

// serveLoop drains the request channel in deterministic batches: the first
// request of a batch is taken blocking, then up to maxBatch-1 more are taken
// without waiting (only this goroutine receives, so a non-empty channel
// cannot block it), and the whole batch is presented at one simulated
// cycle in arrival order.
func (s *server) serveLoop() {
	defer s.wg.Done()
	batch := make([]*request, 0, maxBatch)
	for {
		select {
		case <-s.done:
			// Error out whatever is still queued.
			for len(s.reqCh) > 0 {
				(<-s.reqCh).resp <- response{err: errShuttingDown}
			}
			return
		case r := <-s.reqCh:
			batch = append(batch[:0], r)
			for len(batch) < maxBatch && len(s.reqCh) > 0 {
				batch = append(batch, <-s.reqCh)
			}
			s.serveBatch(batch)
		}
	}
}

// serveBatch presents one batch at the current simulated cycle. Arrival
// order inside the batch is the arbitration order (the queue serves in
// presentation order), and the simulated clock advances past the batch's
// last completion, so consecutive batches never interleave.
func (s *server) serveBatch(batch []*request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxDone := s.now
	for _, r := range batch {
		t0 := time.Now()
		var resp response
		var done int64
		switch r.op {
		case opGet:
			resp.value, resp.found, done, resp.err = s.svc.Get(s.now, r.key)
		case opPut:
			done, resp.err = s.svc.Put(s.now, r.key, r.value)
			resp.found = resp.err == nil
		default:
			resp.found, done, resp.err = s.svc.Delete(s.now, r.key)
		}
		maxDone = max(maxDone, done)
		if resp.err != nil {
			s.errors++
		} else {
			s.ops[r.op]++
			s.wall[min(r.op, opPut)].Record(time.Since(t0).Nanoseconds())
			if !resp.found {
				s.misses++
			}
		}
		r.resp <- resp
	}
	s.now = maxDone + 1
}

// submit hands a request to the serving loop and waits for its response.
func (s *server) submit(r *request) response {
	r.resp = make(chan response, 1)
	select {
	case s.reqCh <- r:
	case <-s.done:
		return response{err: errShuttingDown}
	}
	select {
	case resp := <-r.resp:
		return resp
	case <-s.done:
		return response{err: errShuttingDown}
	}
}

// handler returns the public HTTP mux: /kv/<key>, /statsz, /healthz.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", s.handleKV)
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeHealth(w, s.stats())
	})
	return mux
}

// writeHealth answers ok, or 503 with the counts once the engine has
// counted an anomaly or a stash overflow: either may have zero-filled a
// block that a later read returns as if it were data.
func writeHealth(w http.ResponseWriter, snap statsSnapshot) {
	if snap.Anomalies != 0 || snap.StashOverflows != 0 {
		http.Error(w, fmt.Sprintf("unhealthy: %d anomalies, %d stash overflows", snap.Anomalies, snap.StashOverflows),
			http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleKV(w http.ResponseWriter, req *http.Request) {
	key := strings.TrimPrefix(req.URL.Path, "/kv/")
	if key == "" || strings.Contains(key, "/") {
		http.Error(w, "key must be a single non-empty path segment", http.StatusBadRequest)
		return
	}
	var r request
	switch req.Method {
	case http.MethodGet:
		r = request{op: opGet, key: key}
	case http.MethodPut, http.MethodPost:
		limit := s.svc.MaxValue()
		body, err := io.ReadAll(io.LimitReader(req.Body, int64(limit)+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > limit {
			http.Error(w, fmt.Sprintf("value exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
			return
		}
		r = request{op: opPut, key: key, value: body}
	case http.MethodDelete:
		r = request{op: opDelete, key: key}
	default:
		http.Error(w, "GET, PUT or DELETE", http.StatusMethodNotAllowed)
		return
	}

	resp := s.submit(&r)
	switch {
	case errors.Is(resp.err, errShuttingDown):
		http.Error(w, resp.err.Error(), http.StatusServiceUnavailable)
	case resp.err != nil:
		http.Error(w, resp.err.Error(), http.StatusInternalServerError)
	case !resp.found:
		http.Error(w, "no such key", http.StatusNotFound)
	case r.op == opGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(resp.value)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// statsSnapshot is the JSON body of /statsz: service-side
// wall-clock latency digests (p50/p99 in nanoseconds) straight from the
// metrics histograms, the simulated-cycle digests, and throughput.
type statsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Keys          int     `json:"keys"`
	Reads         uint64  `json:"reads"`
	Writes        uint64  `json:"writes"`
	Deletes       uint64  `json:"deletes"`
	Misses        uint64  `json:"misses"`
	Errors        uint64  `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// The engine's silent-loss guards: a stash overflow drops a real block
	// and a later read returns zeros with only these counters to show it.
	Anomalies      uint64 `json:"anomalies"`
	StashOverflows uint64 `json:"stash_overflows"`

	GetNanos metrics.LatencySummary `json:"get_ns"`
	PutNanos metrics.LatencySummary `json:"put_ns"`

	SimForward  metrics.LatencySummary `json:"sim_forward_cycles"`
	SimComplete metrics.LatencySummary `json:"sim_complete_cycles"`
	SimCycles   int64                  `json:"sim_cycles"`

	Queue oram.QueueStats `json:"queue"`
}

func (s *server) stats() statsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.started).Seconds()
	keys, eng, q := s.svc.Stats()
	snap := statsSnapshot{
		UptimeSeconds:  up,
		Keys:           keys,
		Reads:          s.ops[opGet],
		Writes:         s.ops[opPut],
		Deletes:        s.ops[opDelete],
		Misses:         s.misses,
		Errors:         s.errors,
		Anomalies:      eng.Anomalies,
		StashOverflows: eng.StashOverflows,
		GetNanos:       s.wall[opGet].Summary(),
		PutNanos:       s.wall[opPut].Summary(),
		SimForward:     s.svc.Metrics().ReqForward.Summary(),
		SimComplete:    s.svc.Metrics().ReqComplete.Summary(),
		SimCycles:      s.now,
		Queue:          q,
	}
	if up > 0 {
		snap.ThroughputRPS = float64(s.ops[opGet]+s.ops[opPut]+s.ops[opDelete]) / up
	}
	return snap
}
