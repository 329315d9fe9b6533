package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"syscall"
	"time"
)

// runConfig is what every repetition of a run shares.
type runConfig struct {
	Exe     string // this binary, re-executed per repetition
	Shadowd string // built shadowd binary
	TmpDir  string // scratch directory inside the checkout
	Seed    uint64 // workload seed
	Log     io.Writer
}

// repTimeout bounds one repetition; the slowest takes ~5 s here.
const repTimeout = 60 * time.Second

// spawnRep runs one repetition in a child process in its own process group
// and returns what it printed. On timeout, cancellation or any other exit
// the whole group is killed, so a server the child started cannot outlive it.
func spawnRep(ctx context.Context, cfg runConfig, w workload, traced bool) (repResult, error) {
	spec, err := json.Marshal(repSpec{Workload: w, Seed: cfg.Seed, Traced: traced, TmpDir: cfg.TmpDir, Shadowd: cfg.Shadowd})
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.Exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	killGroup := func() error {
		if cmd.Process == nil {
			return nil
		}
		err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		if errors.Is(err, syscall.ESRCH) {
			return os.ErrProcessDone
		}
		return err
	}
	cmd.Cancel = killGroup
	cmd.WaitDelay = 2 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	killGroup() // stragglers of a child that died without cleaning up
	if runErr != nil {
		return repResult{}, fmt.Errorf("repetition of %s: %w: %s", w.Name, runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("repetition of %s printed no result: %w", w.Name, err)
	}
	return res, nil
}

// workloadResult is one workload's outcome: what the result file stores and
// what the one-line contract output is cut from.
type workloadResult struct {
	Name      string   `json:"name"`
	Reps      int      `json:"reps"`
	TracedRep int      `json:"traced_reps"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Timed digests, per metric in timedValues, the timed repetitions; the
	// median is the run's value. PerLayer holds every per-layer metric's
	// value, those included.
	Timed     map[string]summary `json:"timed"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Shares    map[string]float64 `json:"layer_shares,omitempty"`
	TopLayer  string             `json:"top_layer,omitempty"`
	SimCycles int64              `json:"sim_cycles"`

	spans []span
}

// runWorkload repeats w in fresh processes: timed repetitions until they
// have measured for timedSeconds (at least minReps of them), then traced
// repetitions until tracedSeconds (at least one, if any were asked for).
// A repetition that dies counts all its operations as failed; the run
// carries on.
func runWorkload(ctx context.Context, cfg runConfig, w workload, timedSeconds, tracedSeconds float64, minReps int) workloadResult {
	out := workloadResult{Name: w.Name, Timed: map[string]summary{}}
	phase := func(traced bool, seconds float64, atLeast int) []repResult {
		var reps []repResult
		var measured float64
		for (measured < seconds || len(reps) < atLeast) && len(reps) < 40 && ctx.Err() == nil {
			r, err := spawnRep(ctx, cfg, w, traced)
			out.Attempted += w.ops()
			if err != nil {
				out.Failed += w.ops()
				out.Failures = append(out.Failures, err.Error())
				fmt.Fprintln(cfg.Log, "  ", err)
				if len(out.Failures) >= 3 {
					break // a workload that cannot run at all should not spin
				}
				continue
			}
			out.Failed += r.Failed
			out.Failures = append(out.Failures, r.Failures...)
			reps = append(reps, r)
			measured += r.WallS
			fmt.Fprintf(cfg.Log, "   %s traced=%v: %d ops in %.3fs (cpu %.3fs, set-up %.3fs, %d failed)\n",
				w.Name, traced, r.Ops, r.WallS, r.CPUS, r.SetupS, r.Failed)
		}
		return reps
	}
	col := func(reps []repResult, f func(repResult) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}

	timed := phase(false, timedSeconds, minReps)
	out.Reps = len(timed)
	if len(timed) > 0 {
		for name, f := range timedValues {
			out.Timed[name] = summarize(col(timed, f))
		}
		out.SimCycles = timed[0].SimCycles
	}

	var tracedReps []repResult
	if tracedSeconds > 0 {
		tracedReps = phase(true, tracedSeconds, 1)
	}
	out.TracedRep = len(tracedReps)

	// Simulated time is the model's result: the same seed must give the
	// same cycles in every repetition, and the hand-composed traced run
	// must reproduce sim.Run's bit for bit. The HTTP workload is exempt:
	// its two callers interleave differently from run to run.
	if w.Kind != kindHTTP {
		for _, r := range slices.Concat(timed, tracedReps) {
			if r.SimCycles != out.SimCycles {
				out.Failed += r.Ops
				out.Failures = append(out.Failures, fmt.Sprintf("%s: %d simulated cycles in one repetition, %d in another (same seed)",
					w.Name, r.SimCycles, out.SimCycles))
			}
		}
	}
	if len(out.Failures) > 8 {
		out.Failures = out.Failures[:8]
	}

	if len(tracedReps) > 0 && len(timed) > 0 {
		out.PerLayer = map[string]float64{}
		for _, m := range perLayer {
			if s, ok := out.Timed[m.Name]; ok {
				out.PerLayer[m.Name] = s.Median
			} else {
				out.PerLayer[m.Name] = median(col(tracedReps, func(r repResult) float64 { return r.Layers[m.Name] }))
			}
		}
		out.PerLayer["trace_overhead_frac"] = out.Timed["ops_per_s"].Median/median(col(tracedReps, timedValues["ops_per_s"])) - 1

		out.Shares = map[string]float64{}
		for name := range tracedReps[0].Shares {
			out.Shares[name] = median(col(tracedReps, func(r repResult) float64 { return r.Shares[name] }))
		}
		for name, v := range out.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out.PerLayer[name] = 0 // a ratio over nothing; JSON has no NaN
			}
		}
		out.TopLayer = topLayer(out.Shares)
		out.spans = tracedReps[len(tracedReps)-1].Spans
	}
	return out
}

// byShare lists the layers, largest share of the measured time first.
func byShare(shares map[string]float64) []string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// topLayer names the layer with the largest share of the measured time.
func topLayer(shares map[string]float64) string {
	if names := byShare(shares); len(names) > 0 {
		return names[0]
	}
	return ""
}
