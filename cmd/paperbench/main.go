// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index) and writes the results as
// text tables under -out.
//
// Usage:
//
//	paperbench                 # everything at publication scale
//	paperbench -quick          # fast smoke run
//	paperbench -only fig9      # one experiment
//
// -debug serves the live debug mux (/debug/pprof, /debug/vars) for Go
// profiles of a running sweep. One instrumented cell — metrics report,
// Chrome trace, /debug/shadow — is shadowsim's job:
//
//	shadowsim -bench mcf -scheme dynamic-3 -metrics m.json -trace t.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run at reduced scale")
	only := fs.String("only", "", "run a single experiment (tableI, fig6, fig8, ... fig19, ablation, ring, engines, occupancy)")
	engines := fs.String("engines", "", "comma-separated scheme list for the cross-engine matrix (default dynamic-3,ring:dynamic-3)")
	out := fs.String("out", "results", "output directory ('' = stdout only)")
	refs := fs.Int("refs", 0, "override references per run")
	debugAddr := fs.String("debug", "", "serve the live debug mux (/debug/pprof, /debug/vars) on this address")
	par := fs.Int("par", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}

	experiments.SetParallelism(*par)

	// File-based profiles for batch runs: the live -debug mux profiles a
	// running sweep interactively, but CI and scripted before/after
	// comparisons want artifacts on disk.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
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
				fmt.Fprintln(stderr, "paperbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "paperbench: memprofile:", err)
			}
		}()
	}

	if *debugAddr != "" {
		srv, err := metrics.ServeDebug(*debugAddr, nil)
		if err != nil {
			return fail(fmt.Errorf("debug: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "paperbench: debug mux on http://%s/debug/{pprof,vars}\n", srv.Addr())
	}

	r := experiments.Default()
	if *quick {
		r = experiments.Quick()
	}
	if *refs > 0 {
		r.Refs = *refs
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
		{"ring", wrap(func() (renderer, error) { return experiments.EngineMatrix(r, experiments.RingSchemes()) })},
		{"engines", wrap(func() (renderer, error) {
			return experiments.EngineMatrix(r, engineSchemes(*engines))
		})},
		{"occupancy", wrap(func() (renderer, error) { return experiments.Occupancy(r) })},
	}

	if *only != "" {
		var names []string
		var selected []exp
		for _, e := range expts {
			names = append(names, e.name)
			if strings.EqualFold(*only, e.name) {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			return fail(fmt.Errorf("-only %q: no such experiment (known: %s)", *only, strings.Join(names, ", ")))
		}
		expts = selected
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
	}
	for _, e := range expts {
		start := time.Now()
		text, err := e.run()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Fprintf(stdout, "== %s (%.1fs) ==\n%s\n", e.name, time.Since(start).Seconds(), text)
		if *out != "" {
			path := filepath.Join(*out, e.name+".txt")
			if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
				return fail(err)
			}
		}
	}
	return 0
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
