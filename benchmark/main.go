// Command benchmark is the repository's yardstick: six workloads over the
// cycle-level simulator, the embedded functional ORAM and the shadowd HTTP
// service, measured from outside through public functions and seams. See
// README.md in this directory for the metric tables and how to read them.
//
//	bash benchmark/run.sh --workload kv-embed-mem --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1 -out result.json -spans spans.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and print the one-line JSON result (empty = all six, human-readable)")
		seed    = fs.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds = fs.Float64("seconds", 15, "how long the repetitions of one workload measure for, set-up excluded")
		traced  = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of traced repetitions")
		out     = fs.String("out", "", "all-workloads mode: write the result file here")
		spans   = fs.String("spans", "", "all-workloads mode: write the sampled span trees here")
		compare = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric regressed")
		table   = fs.String("table", "", "print a result file as the README's markdown tables")
		shadowd = fs.String("shadowd", "", "shadowd binary (built once into the scratch directory when empty)")
		tmp     = fs.String("tmp", "", "directory for scratch files (default: the system temp directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		return compareFiles(fs.Args())
	case *table != "":
		rf, err := readResult(*table)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		printTable(os.Stdout, rf)
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *tmp != "" {
		if err := os.MkdirAll(*tmp, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	scratch, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	if scratch, err = filepath.Abs(scratch); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := runConfig{Exe: exe, Shadowd: *shadowd, TmpDir: scratch, Seed: *seed, Log: os.Stderr}
	if cfg.Shadowd == "" {
		// Built once, before any timing.
		cfg.Shadowd = filepath.Join(scratch, "shadowd")
		if b, err := exec.CommandContext(ctx, "go", "build", "-o", cfg.Shadowd, "shadowblock/cmd/shadowd").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: building shadowd: %v\n%s", err, b)
			return 1
		}
	} else if cfg.Shadowd, err = filepath.Abs(cfg.Shadowd); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	if *name != "" {
		return runOne(ctx, cfg, *name, *seconds, *traced == 1)
	}
	return runAll(ctx, cfg, *seconds, *out, *spans)
}

// compareFiles is -compare: exit 0 when the second file is no worse than the
// first, 1 when it is (a regressed row, a missing workload, failed
// operations), 2 when the files cannot be compared.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
		return 2
	}
	a, err := readResult(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a.Labels["seconds"] != b.Labels["seconds"] {
		fmt.Fprintf(os.Stderr, "benchmark: the files were measured for %s and %s seconds: not comparable\n", a.Labels["seconds"], b.Labels["seconds"])
		return 2
	}
	if compareResults(os.Stdout, a, b) {
		return 1
	}
	return 0
}

// contractLine is the last line of output the acceptance driver parses.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one line of JSON. With
// traced, half the time goes to timed repetitions (the traced ones are
// compared against them) and half to traced ones.
func runOne(ctx context.Context, cfg runConfig, name string, seconds float64, traced bool) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var res workloadResult
	line := contractLine{Metrics: map[string]contractValue{}}
	if traced {
		res = runWorkload(ctx, cfg, w, seconds/2, seconds/2, 2)
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractValue{res.PerLayer[m.Name], m.Unit}
		}
	} else {
		res = runWorkload(ctx, cfg, w, seconds, 0, 3)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractValue{res.Timed[m.Name].Median, m.Unit}
		}
	}
	if ctx.Err() != nil {
		return 130
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if res.Reps == 0 || (traced && res.TracedRep == 0) {
		fmt.Fprintln(os.Stderr, "benchmark: no repetition of", name, "completed")
		return 1
	}
	line.Correct = res.Failed == 0
	line.Attempted = res.Attempted
	line.Failed = res.Failed
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runAll runs all six workloads, prints every metric by name and unit, and
// writes the result and span files. Exit 1 if any operation failed.
func runAll(ctx context.Context, cfg runConfig, seconds float64, outPath, spansPath string) int {
	commit := "" // a checkout without git has no label
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	rf := resultFile{Schema: resultSchema, Labels: map[string]string{
		"seed":    strconv.FormatUint(cfg.Seed, 10),
		"seconds": strconv.FormatFloat(seconds, 'g', -1, 64),
		"nproc":   strconv.Itoa(runtime.NumCPU()),
		"go":      runtime.Version(),
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit":  commit,
	}}
	allSpans := map[string][]span{}
	failed := 0
	for _, w := range workloads {
		if ctx.Err() != nil {
			return 130
		}
		fmt.Fprintf(os.Stderr, "%s ...\n", w.Name)
		// The traced repetitions get a quarter of the time: if the cap on
		// the whole command forces a cut, it is theirs to take.
		res := runWorkload(ctx, cfg, w, seconds, seconds/4, 3)
		printWorkload(os.Stdout, res)
		failed += res.Failed
		allSpans[w.Name] = res.spans
		rf.Workloads = append(rf.Workloads, res)
	}
	if outPath != "" {
		if err := rf.write(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if spansPath != "" {
		b, err := json.Marshal(allSpans)
		if err == nil {
			err = os.WriteFile(spansPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d operations failed\n", failed)
		return 1
	}
	return 0
}
