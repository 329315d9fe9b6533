// Command paperbench regenerates every table and figure of the paper's
// evaluation — the experiments.Registry, in its order (DESIGN.md §4 is the
// index) — and writes each result as a text table to -out/<name>.txt.
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

	"shadowblock/internal/debugsrv"
	"shadowblock/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run at reduced scale")
	var names []string
	for _, e := range experiments.Registry(nil) {
		names = append(names, e.Name)
	}
	only := fs.String("only", "", "run a single experiment: "+strings.Join(names, ", "))
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

	if *refs < 0 || *par < 0 {
		return fail(fmt.Errorf("-refs %d, -par %d: want counts >= 0, 0 for the default", *refs, *par))
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
		srv, err := debugsrv.Serve(*debugAddr, nil)
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

	expts := experiments.Registry(engineSchemes(*engines))
	if *only != "" {
		var selected []experiments.Experiment
		for _, e := range expts {
			if strings.EqualFold(*only, e.Name) {
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
		res, err := e.Run(r)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		text := res.Render()
		fmt.Fprintf(stdout, "== %s (%.1fs) ==\n%s\n", e.Name, time.Since(start).Seconds(), text)
		if *out != "" {
			path := filepath.Join(*out, e.Name+".txt")
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
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
