package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a repetition's spec to the re-executed benchmark binary.
// Every repetition runs in a fresh process so that its CPU time and peak
// memory are that repetition's alone and no state survives between them.
const childEnv = "SHADOWBENCH_CHILD"

// maxSpansPerRep bounds the sampled span trees one repetition keeps.
const maxSpansPerRep = 4000

// repSpec is one repetition's instructions.
type repSpec struct {
	Workload workload `json:"workload"`
	Seed     uint64   `json:"seed"`
	Traced   bool     `json:"traced"`
	TmpDir   string   `json:"tmp_dir"`
	Shadowd  string   `json:"shadowd"`
}

// repResult is what one repetition measured.
type repResult struct {
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"` // first few, for the log

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`  // measured phase only
	CPUS      float64 `json:"cpu_s"`   // user+sys of the process under test
	CPUOps    int     `json:"cpu_ops"` // operations that CPU time covers
	PeakRSSMB float64 `json:"peak_rss_mb"`
	SimCycles int64   `json:"sim_cycles"`

	// Exact per-operation latency percentiles (KV workloads).
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	Maxus  float64 `json:"max_us"`

	// Go runtime deltas over the measured phase (in-process workloads).
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	GCPauseMs  float64 `json:"gc_pause_ms"`

	// Traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Shares map[string]float64 `json:"shares,omitempty"` // layer -> share of measured wall
	Spans  []span             `json:"spans,omitempty"`
}

// fail counts n failed operations and keeps the first few messages.
func (r *repResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// meter brackets the measured phase of an in-process repetition.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = selfCPU()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(r *repResult) {
	r.WallS = time.Since(m.t0).Seconds()
	r.CPUS = selfCPU() - m.cpu
	r.CPUOps = r.Ops
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocBytes = ms.TotalAlloc - m.ms.TotalAlloc
	r.Allocs = ms.Mallocs - m.ms.Mallocs
	r.GCPauseMs = float64(ms.PauseTotalNs-m.ms.PauseTotalNs) / 1e6
	r.PeakRSSMB = peakRSSMB(os.Getpid())
}

// selfCPU is this process's CPU time so far, user plus system.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB reads a live process's resident high-water mark. VmHWM belongs
// to the address space created at exec; ru_maxrss can carry over the peak
// of the process that forked it, so it is only the fallback.
func peakRSSMB(pid int) float64 {
	if f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			return float64(ru.Maxrss) / 1024
		}
	}
	return 0
}

// childMain runs one repetition and prints its result as one JSON line.
// Clean-up (server process, temp files) is registered with cl so that a
// signal runs it too.
func childMain(specJSON string) int {
	var spec repSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	w := spec.Workload

	var cl cleanup
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cl.run()
		os.Exit(130)
	}()
	defer cl.run()

	var res repResult
	var err error
	switch w.Kind {
	case kindSim:
		res, err = runSim(w, spec.Seed, spec.Traced)
	case kindEmbed:
		res, err = runEmbed(w, spec, &cl)
	case kindHTTP:
		res, err = runHTTP(w, spec, &cl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	cl.run()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}
