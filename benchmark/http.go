package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// cleanup runs registered functions once, last first, from whichever exit
// path gets there first: normal return, error return or signal.
type cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// server is one shadowd subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
	rssMB  float64
}

// startShadowd launches a fresh server on a free port and waits for its
// first /healthz 200. A fresh process per repetition is required, not just
// tidy: a reused server still holds the previous repetition's keys, and the
// read-your-writes checker then reports them as never written.
func startShadowd(bin, dir string, w workload, client *http.Client) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-backend", w.Backend, "-l", strconv.Itoa(w.L))
	cmd.Stdout = io.Discard
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shadowd: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("shadowd exited during start-up: %s", logs.String())
		default:
		}
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				s.base = "http://" + string(b)
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("shadowd not healthy after 20s: %s", logs.String())
}

// stop ends the server (SIGTERM, then SIGKILL after 3 s) and waits for it.
// Safe to call more than once and after the process died on its own.
func (s *server) stop() {
	s.once.Do(func() {
		s.rssMB = peakRSSMB(s.cmd.Process.Pid)
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(3 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// cpu returns the exited server's user and system CPU seconds.
func (s *server) cpu() (user, sys float64) {
	if ps := s.cmd.ProcessState; ps != nil {
		return ps.UserTime().Seconds(), ps.SystemTime().Seconds()
	}
	return 0, 0
}

// httpKV is one caller's view of shadowd.
type httpKV struct {
	client *http.Client
	base   string
	tr     *tracer
}

func (h *httpKV) do(method, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+"/kv/"+key, rd)
	if err != nil {
		return 0, nil, err
	}
	h.tr.begin(layHTTP, false)
	resp, err := h.client.Do(req)
	if err != nil {
		h.tr.end()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	h.tr.end()
	return resp.StatusCode, b, err
}

func (h *httpKV) get(key string) ([]byte, bool, error) {
	code, body, err := h.do(http.MethodGet, key, nil)
	switch {
	case err != nil:
		return nil, false, err
	case code == http.StatusOK:
		return body, true, nil
	case code == http.StatusNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("status %d", code)
}

func (h *httpKV) put(key string, value []byte) error {
	code, _, err := h.do(http.MethodPut, key, value)
	if err == nil && code != http.StatusNoContent {
		err = fmt.Errorf("status %d", code)
	}
	return err
}

func (h *httpKV) del(key string) (bool, error) {
	code, _, err := h.do(http.MethodDelete, key, nil)
	switch {
	case err != nil:
		return false, err
	case code == http.StatusNoContent:
		return true, nil
	case code == http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("status %d", code)
}

// statsz is the part of shadowd's /statsz body the benchmark reads.
type statsz struct {
	Errors    uint64 `json:"errors"`
	SimCycles int64  `json:"sim_cycles"`
	Get       struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
	} `json:"get_ns"`
	Put struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
	} `json:"put_ns"`
}

func fetchStatsz(client *http.Client, base string) (statsz, error) {
	var st statsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// eachCaller runs fn once per caller, concurrently, and waits for all.
func eachCaller(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runHTTP is one repetition against a fresh shadowd. The load generator is
// this process: w.Clients closed-loop callers, each on its own keep-alive
// connection and its own key shard, each waiting for a reply before its
// next request.
func runHTTP(w workload, spec repSpec, cl *cleanup) (repResult, error) {
	r := repResult{Ops: w.Ops / w.Clients * w.Clients, Layers: map[string]float64{}}
	dir, err := os.MkdirTemp(spec.TmpDir, "http-")
	if err != nil {
		return r, err
	}
	cl.add(func() { os.RemoveAll(dir) })
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.Clients, MaxConnsPerHost: w.Clients},
		Timeout:   10 * time.Second,
	}

	t0 := time.Now()
	srv, err := startShadowd(spec.Shadowd, dir, w, client)
	if err != nil {
		return r, err
	}
	cl.add(srv.stop)
	shard := w.Keys / w.Clients
	gens := make([]*opGen, w.Clients)
	errs := make([]error, w.Clients)
	eachCaller(w.Clients, func(i int) {
		gens[i] = newOpGen(w, spec.Seed, i, i*shard, shard)
		errs[i] = gens[i].prefill(&httpKV{client: client, base: srv.base})
	})
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	r.SetupS = time.Since(t0).Seconds()
	pre, err := fetchStatsz(client, srv.base)
	if err != nil {
		return r, fmt.Errorf("statsz: %w", err)
	}

	// A server that dies mid-run is not an abort: every remaining request
	// fails fast on a refused connection and is counted as failed.
	per := w.Ops / w.Clients
	parts := make([]repResult, w.Clients)
	lats := make([][]int64, w.Clients)
	trs := make([]*tracer, w.Clients)
	m := startMeter()
	eachCaller(w.Clients, func(i int) {
		if spec.Traced {
			trs[i] = newTracer(uint64(max(per/100, 1)), maxSpansPerRep/w.Clients)
		}
		c := &httpKV{client: client, base: srv.base, tr: trs[i]}
		lats[i] = gens[i].run(c, per, trs[i], make([]int64, 0, per), &parts[i])
	})
	m.stop(&r)
	loadgenCPU := r.CPUS

	post, statErr := fetchStatsz(client, srv.base)
	srv.stop()
	var lat []int64
	for i := range parts {
		r.Failed += parts[i].Failed
		r.Failures = append(r.Failures, parts[i].Failures...)
		lat = append(lat, lats[i]...)
	}
	if len(r.Failures) > 8 {
		r.Failures = r.Failures[:8]
	}
	if statErr != nil {
		r.fail(1, "statsz after the run: %v", statErr)
	} else if post.Errors > 0 {
		r.fail(int(post.Errors), "shadowd reports %d errored operations", post.Errors)
	}
	r.SimCycles = post.SimCycles - pre.SimCycles

	// The process under test is the server, for its whole life: start-up
	// and prefill requests included, so CPU is per request it ever served.
	user, sys := srv.cpu()
	r.CPUS = user + sys
	r.CPUOps = r.Ops + w.Keys/w.Clients*w.Clients
	r.PeakRSSMB = srv.rssMB
	r.AllocBytes, r.Allocs, r.GCPauseMs = 0, 0, 0 // the generator's, not the server's

	var clientNS float64
	for _, ns := range lat {
		clientNS += float64(ns)
	}
	if spec.Traced && statErr == nil {
		L := r.Layers
		ops := float64(r.Ops)
		served := float64(post.Get.Count + post.Put.Count - pre.Get.Count - pre.Put.Count)
		serviceNS := post.Get.Mean*float64(post.Get.Count) + post.Put.Mean*float64(post.Put.Count) -
			pre.Get.Mean*float64(pre.Get.Count) - pre.Put.Mean*float64(pre.Put.Count)
		L["http.client_mean_us"] = clientNS / ops / 1e3
		if served > 0 {
			L["shadowd.service_mean_us"] = serviceNS / served / 1e3
		}
		L["http.overhead_us_per_op"] = L["http.client_mean_us"] - L["shadowd.service_mean_us"]
		L["http.overhead_share"] = L["http.overhead_us_per_op"] / L["http.client_mean_us"]
		L["shadowd.cpu_user_us_per_op"] = user * 1e6 / float64(r.CPUOps)
		L["shadowd.cpu_sys_us_per_op"] = sys * 1e6 / float64(r.CPUOps)
		L["loadgen.cpu_share"] = loadgenCPU / (loadgenCPU + r.CPUS)

		tr := trs[0]
		for _, o := range trs[1:] {
			tr.merge(o)
		}
		// Callers overlap, so shares are of caller-time, not of wall time.
		callerNS := float64(tr.self[layHTTP] + tr.self[layHarness])
		L["layers.sum_frac"] = callerNS / clientNS
		L["harness.self_ns_per_op"] = float64(tr.self[layHarness]) / ops
		service := serviceNS / clientNS
		r.Shares = map[string]float64{
			"http":            float64(tr.self[layHTTP])/clientNS - service,
			"shadowd.service": service,
			"harness":         float64(tr.self[layHarness]) / clientNS,
		}
		r.Spans = tr.spans
	}
	r.setLatencies(lat)
	return r, nil
}
