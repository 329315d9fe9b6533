// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index) and writes the results as
// text tables under -out.
//
// Usage:
//
//	paperbench                 # everything at publication scale
//	paperbench -quick          # fast smoke run
//	paperbench -only fig9      # one experiment
//	paperbench -metrics m.json -trace t.json -obs-bench mcf
//
// -metrics/-trace run one additional instrumented cell (workload
// -obs-bench under scheme -obs-scheme) and emit its metrics JSON report
// and Chrome trace; -debug serves the live debug mux —
// /debug/pprof for Go profiles of the sweep, /debug/shadow for a JSON
// snapshot of the observation cell mid-run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	only := flag.String("only", "", "run a single experiment (tableI, fig6, fig8, ... fig19, ablation, ring, engines, occupancy)")
	engines := flag.String("engines", "", "comma-separated scheme list for the cross-engine matrix (default dynamic-3,ring:dynamic-3)")
	out := flag.String("out", "results", "output directory ('' = stdout only)")
	refs := flag.Int("refs", 0, "override references per run")
	metricsOut := flag.String("metrics", "", "write a metrics JSON report of the observation cell to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the observation cell to this file")
	obsBench := flag.String("obs-bench", "hmmer", "workload of the observation cell")
	obsScheme := flag.String("obs-scheme", "dynamic-3", "scheme of the observation cell (accepts -pipe suffixed names)")
	pipeline := flag.Bool("pipeline", false, "run the observation cell on the pipelined request engine")
	channels := flag.Int("channels", 0, "run the observation cell on the N-channel memory system (same as a -cN scheme suffix)")
	cores := flag.Int("cores", 0, "run the observation cell with N issuing cores (same as a -coreN scheme suffix)")
	wb := flag.String("wb", "", "writeback scheduler of the observation cell: coupled | decoupled (same as a -wbd scheme suffix)")
	debugAddr := flag.String("debug", "", "serve the live debug mux (/debug/pprof, /debug/vars, /debug/shadow) on this address")
	par := flag.Int("par", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	experiments.SetParallelism(*par)

	// File-based profiles for batch runs: the live -debug mux profiles a
	// running sweep interactively, but CI and scripted before/after
	// comparisons want artifacts on disk.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
			}
		}()
	}

	// The observation cell's collector doubles as the /debug/shadow data
	// source, so a long instrumented cell can be inspected mid-flight.
	var col *metrics.Collector
	if *metricsOut != "" || *traceOut != "" {
		col = metrics.New(metrics.Options{Tracing: *traceOut != "", Ledger: true})
	}
	if *debugAddr != "" {
		srv, err := metrics.ServeDebug(*debugAddr, col)
		if err != nil {
			fatal(fmt.Errorf("debug: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "paperbench: debug mux on http://%s/debug/{pprof,vars,shadow}\n", srv.Addr())
	}

	r := experiments.Default()
	if *quick {
		r = experiments.Quick()
	}
	if *refs > 0 {
		r.Refs = *refs
	}

	if col != nil {
		if err := observe(r, *obsBench, *obsScheme, *pipeline, *channels, *cores, *wb, *metricsOut, *traceOut, col); err != nil {
			fatal(err)
		}
	}

	type exp struct {
		name string
		run  func() (string, error)
	}
	expts := []exp{
		{"tableI", func() (string, error) { return experiments.TableI(), nil }},
		{"fig6", wrap(func() (renderer, error) { return experiments.Fig06(r) })},
		{"fig8", wrap(func() (renderer, error) { return experiments.Fig08(r) })},
		{"fig9", wrap(func() (renderer, error) { return experiments.Fig09(r) })},
		{"fig10", wrap(func() (renderer, error) { return experiments.Fig10(r) })},
		{"fig11", wrap(func() (renderer, error) { return experiments.Fig11(r) })},
		{"fig12", wrap(func() (renderer, error) { return experiments.Fig12(r) })},
		{"fig13", wrap(func() (renderer, error) { return experiments.Fig13(r) })},
		{"fig14", wrap(func() (renderer, error) { return experiments.Fig14(r) })},
		{"fig15", wrap(func() (renderer, error) { return experiments.Fig15(r) })},
		{"fig16", wrap(func() (renderer, error) { return experiments.Fig16(r) })},
		{"fig17", wrap(func() (renderer, error) { return experiments.Fig17(r) })},
		{"fig18", wrap(func() (renderer, error) { return experiments.Fig18(r) })},
		{"fig19", wrap(func() (renderer, error) { return experiments.Fig19(r) })},
		{"ablation", wrap(func() (renderer, error) { return experiments.Ablation(r) })},
		{"ring", wrap(func() (renderer, error) { return experiments.RingStudy(r) })},
		{"engines", wrap(func() (renderer, error) {
			return experiments.EngineMatrix(r, engineSchemes(*engines))
		})},
		{"occupancy", wrap(func() (renderer, error) { return experiments.Occupancy(r) })},
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, e := range expts {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
		start := time.Now()
		text, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", e.name, time.Since(start).Seconds(), text)
		if *out != "" {
			path := filepath.Join(*out, e.name+".txt")
			if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

// observe runs the single instrumented (bench, scheme) cell and writes its
// metrics report and/or Chrome trace.
func observe(r experiments.Runner, bench, scheme string, pipeline bool, channels, cores int, wb, metricsOut, traceOut string, col *metrics.Collector) error {
	p, ok := trace.ByName(bench)
	if !ok {
		return fmt.Errorf("observe: unknown benchmark %q", bench)
	}
	s, err := experiments.ParseScheme(scheme)
	if err != nil {
		return err
	}
	if pipeline {
		if s.Insecure {
			return fmt.Errorf("observe: the insecure baseline has no ORAM engine to pipeline")
		}
		s.Pipeline = true
	}
	if channels > 0 {
		if s.Insecure {
			return fmt.Errorf("observe: the insecure baseline has no ORAM layout to interleave")
		}
		s.Channels = channels
	}
	if cores > 0 {
		s.Cores = cores
	}
	switch wb {
	case "":
	case "coupled":
		s.WBDecoupled = false
	case "decoupled":
		if s.Insecure {
			return fmt.Errorf("observe: the insecure baseline has no writeback path to decouple")
		}
		s.WBDecoupled = true
	default:
		return fmt.Errorf("observe: unknown -wb value %q (want coupled or decoupled)", wb)
	}
	start := time.Now()
	m, err := r.Observe(p, cpu.InOrder(), s, col)
	if err != nil {
		return err
	}
	lat := m.ReqLatency
	fmt.Printf("== observe %s/%s (%.1fs) ==\nreq latency p50 %d, p90 %d, p99 %d, max %d over %d requests\n\n",
		bench, scheme, time.Since(start).Seconds(), lat.P50, lat.P90, lat.P99, lat.Max, lat.Count)
	if metricsOut != "" {
		if err := m.Obs.WriteFile(metricsOut); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := col.WriteTraceFile(traceOut, map[string]string{"bench": bench, "scheme": scheme}); err != nil {
			return err
		}
	}
	return nil
}

// engineSchemes splits the -engines flag; empty keeps the default
// path-vs-ring comparison.
func engineSchemes(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

type renderer interface{ Render() string }

func wrap(fn func() (renderer, error)) func() (string, error) {
	return func() (string, error) {
		v, err := fn()
		if err != nil {
			return "", err
		}
		return v.Render(), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
