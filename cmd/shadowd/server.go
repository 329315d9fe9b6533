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

	"shadowblock/internal/core"
	"shadowblock/internal/kv"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
)

// serverConfig parameterises one shadowd instance.
type serverConfig struct {
	L       int           // ORAM tree leaf level
	Backend store.Backend // sealed-bucket storage; nil = in-memory
	MaxBody int64         // request body cap in bytes (defaults to block payload)
}

// maxBatch is the most requests the serving loop presents at one
// simulated cycle.
const maxBatch = 16

// server is the oblivious KV service: HTTP requests funnel into a single
// serving goroutine that presents them to the oram.Queue front end on its
// one requestor lane with deterministic batching — every request of a
// batch is presented at the same simulated cycle, in arrival order, so a
// replay of the same arrival sequence reproduces the same simulated
// timeline bit for bit. One ORAM access per operation; the adversary
// watching the storage backend sees only bucket reads and writes of
// indistinguishable ciphertexts.
type server struct {
	cfg  serverConfig
	ctrl *oram.Controller // the engine behind q: block size and counters
	q    *oram.Queue
	mc   *metrics.Collector
	back store.Backend

	reqCh chan *request
	done  chan struct{}
	wg    sync.WaitGroup

	// mu guards everything below plus the queue/collector state the
	// serving loop mutates; the stats endpoint snapshots under it.
	mu      sync.Mutex
	dir     *kv.Directory
	now     int64 // simulated presentation cycle
	started time.Time
	reads   uint64
	writes  uint64
	deletes uint64
	misses  uint64
	errors  uint64
	svcGet  *metrics.Histogram // wall-clock ns per served GET
	svcPut  *metrics.Histogram // wall-clock ns per served PUT/DELETE
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

// newServer builds the ORAM, the front end, and the serving loop.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.L == 0 {
		cfg.L = 12
	}
	ocfg := oram.Default()
	ocfg.L = cfg.L
	ocfg.Functional = true
	ocfg.Store = cfg.Backend
	ctrl, _, err := core.New(ocfg, core.Dynamic(3))
	if err != nil {
		return nil, err
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = int64(kv.MaxValue(ctrl.BlockBytes()))
	}
	mc := metrics.New(metrics.Options{Ledger: true})
	ctrl.SetMetrics(mc)
	q := oram.NewQueue(ctrl, 1)
	q.SetMetrics(mc)
	s := &server{
		cfg:     cfg,
		ctrl:    ctrl,
		q:       q,
		mc:      mc,
		back:    cfg.Backend,
		reqCh:   make(chan *request, 4*maxBatch),
		done:    make(chan struct{}),
		dir:     kv.NewDirectory(ctrl.NumDataBlocks()),
		started: time.Now(),
		svcGet:  metrics.NewHistogram(),
		svcPut:  metrics.NewHistogram(),
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
	if s.back != nil {
		return s.back.Close()
	}
	return nil
}

// serveLoop drains the request channel in deterministic batches: the first
// request of a batch is taken blocking, then up to maxBatch-1 more are taken
// without waiting, and the whole batch is presented at one simulated cycle
// in arrival order.
func (s *server) serveLoop() {
	defer s.wg.Done()
	batch := make([]*request, 0, maxBatch)
	for {
		select {
		case <-s.done:
			s.failPending()
			return
		case r := <-s.reqCh:
			batch = append(batch[:0], r)
			for len(batch) < maxBatch {
				select {
				case r2 := <-s.reqCh:
					batch = append(batch, r2)
				default:
					goto full
				}
			}
		full:
			s.serveBatch(batch)
		}
	}
}

// failPending errors out whatever is still queued at shutdown.
func (s *server) failPending() {
	for {
		select {
		case r := <-s.reqCh:
			r.resp <- response{err: errShuttingDown}
		default:
			return
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
		resp, done := s.serveOne(s.now, r)
		if done > maxDone {
			maxDone = done
		}
		wall := time.Since(t0).Nanoseconds()
		switch {
		case resp.err != nil:
			s.errors++
		case r.op == opGet:
			s.reads++
			s.svcGet.Record(wall)
		default:
			if r.op == opPut {
				s.writes++
			} else {
				s.deletes++
			}
			s.svcPut.Record(wall)
		}
		if resp.err == nil && !resp.found {
			s.misses++
		}
		r.resp <- resp
	}
	s.now = maxDone + 1
}

// serveOne runs one operation through the front end at cycle now and
// returns its response plus the completion cycle of any ORAM work.
func (s *server) serveOne(now int64, r *request) (response, int64) {
	switch r.op {
	case opGet:
		addr, ok := s.dir.Lookup(r.key)
		if !ok {
			// Key existence is directory metadata, like the key set itself;
			// no ORAM access happens, so absent keys are cheap and leak
			// nothing about present ones.
			return response{}, now
		}
		data, out := s.q.Read(now, 0, addr)
		value, err := kv.DecodeValue(data)
		if err != nil {
			return response{err: fmt.Errorf("shadowd: block %d: %w", addr, err)}, out.Done
		}
		return response{value: value, found: true}, out.Done

	case opPut:
		blockData, err := kv.EncodeValue(r.value, s.ctrl.BlockBytes())
		if err != nil {
			return response{err: err}, now
		}
		addr, err := s.dir.Assign(r.key)
		if err != nil {
			return response{err: err}, now
		}
		out, err := s.q.Write(now, 0, addr, blockData)
		if err != nil {
			return response{err: err}, now
		}
		return response{found: true}, out.Done

	default: // opDelete
		addr, ok := s.dir.Remove(r.key)
		if !ok {
			return response{}, now
		}
		// Scrub the block before its address is recycled, so a later key
		// assigned the same address can never read the old value.
		zero, err := kv.EncodeValue(nil, s.ctrl.BlockBytes())
		if err != nil {
			return response{err: err}, now
		}
		out, err := s.q.Write(now, 0, addr, zero)
		if err != nil {
			return response{err: err}, now
		}
		return response{found: true}, out.Done
	}
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
	mux.HandleFunc("/statsz", s.handleStats)
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
		body, err := io.ReadAll(io.LimitReader(req.Body, s.cfg.MaxBody+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > s.cfg.MaxBody {
			http.Error(w, fmt.Sprintf("value exceeds %d bytes", s.cfg.MaxBody), http.StatusRequestEntityTooLarge)
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
	served := s.reads + s.writes + s.deletes
	snap := statsSnapshot{
		UptimeSeconds: up,
		Keys:          s.dir.Len(),
		Reads:         s.reads,
		Writes:        s.writes,
		Deletes:       s.deletes,
		Misses:        s.misses,
		Errors:        s.errors,
		GetNanos:      s.svcGet.Summary(),
		PutNanos:      s.svcPut.Summary(),
		SimForward:    s.mc.ReqForward.Summary(),
		SimComplete:   s.mc.ReqComplete.Summary(),
		SimCycles:     s.now,
	}
	if up > 0 {
		snap.ThroughputRPS = float64(served) / up
	}
	snap.Queue = s.q.Stats()
	st := s.ctrl.Stats()
	snap.Anomalies, snap.StashOverflows = st.Anomalies, st.StashOverflows
	return snap
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.stats())
}
