package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark re-executes its own binary for every repetition; under
// `go test` that binary is the test binary, so it must answer as a child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// scaled shrinks a workload's operation counts; the tests run at ~1 %.
func (w workload) scaled(f float64) workload {
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*f), floor)
	}
	w.Refs = shrink(w.Refs, 300)
	w.Ops = shrink(w.Ops, 200)
	w.Keys = shrink(w.Keys, 64)
	return w
}

// smokeConfig builds shadowd once and returns a run configuration.
func smokeConfig(t *testing.T) runConfig {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "shadowd")
	if out, err := exec.Command("go", "build", "-o", bin, "shadowblock/cmd/shadowd").CombinedOutput(); err != nil {
		t.Fatalf("building shadowd: %v\n%s", err, out)
	}
	return runConfig{Exe: exe, Shadowd: bin, TmpDir: dir, Seed: 1, Log: os.Stderr}
}

// All six workloads at ~1 % size, one timed and one traced repetition each:
// nothing fails (which includes the traced run reproducing the timed run's
// simulated cycles), every named metric is there, and the scratch directory
// is left empty.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := smokeConfig(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runWorkload(context.Background(), cfg, w.scaled(0.01), 0, 0.001, 1)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.Reps != 1 || res.TracedRep != 1 {
				t.Fatalf("%d timed + %d traced repetitions, want 1 + 1", res.Reps, res.TracedRep)
			}
			for _, m := range endToEnd {
				s, ok := res.Timed[m.Name]
				if !ok || s.Median <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v): must be measured and never 0", m.Name, s.Median, ok)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			expectNonZero := map[kind][]string{
				kindSim:   {"ops_per_s", "cpu_us_per_op", "trace.self_ns_per_ref", "cpu.self_ns_per_ref", "oram.self_ns_per_req", "dram.blocks_per_req", "ledger.path_read_frac", "dram.probe_ns_per_block"},
				kindEmbed: {"ops_per_s", "cpu_us_per_op", "oram.functional_self_ns_per_op", "store.read_calls_per_op", "store.write_calls_per_op", "crypt.probe_encrypt_ns", "store.probe_read_ns", "kv.p50_us", "kv.p99_us", "go.allocs_per_op"},
				kindHTTP:  {"ops_per_s", "cpu_us_per_op", "http.client_mean_us", "shadowd.service_mean_us", "http.overhead_us_per_op", "shadowd.cpu_user_us_per_op", "kv.p50_us"},
			}
			for _, name := range expectNonZero[w.Kind] {
				if res.PerLayer[name] <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, res.PerLayer[name], w.Name)
				}
			}
			if w.Scheme == "dynamic-3" && res.PerLayer["core.calls_per_req"] <= 0 {
				t.Error("no policy calls seen under dynamic-3: the policy decorator is not in the path")
			}
			if w.Scheme == "tiny" && res.PerLayer["core.calls_per_req"] != 0 {
				t.Error("policy calls seen under tiny")
			}
			if sum := res.PerLayer["layers.sum_frac"]; sum < 0.5 || sum > 1.05 {
				t.Errorf("layer self times sum to %.2f of the measured time", sum)
			}
			if res.TopLayer == "" || len(res.spans) == 0 {
				t.Errorf("top layer %q, %d sampled spans", res.TopLayer, len(res.spans))
			}
		})
	}
	left, err := os.ReadDir(cfg.TmpDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "shadowd" {
			t.Errorf("scratch directory still holds %s after the run", e.Name())
		}
	}
}

// A repetition that cannot run (here: no server binary) fails its
// operations; it does not abort the run or hang.
func TestDeadChildCountsAsFailed(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{Exe: exe, Shadowd: filepath.Join(t.TempDir(), "no-such-shadowd"), TmpDir: t.TempDir(), Seed: 1, Log: os.Stderr}
	w, err := workloadByName("kv-http-zipf")
	if err != nil {
		t.Fatal(err)
	}
	res := runWorkload(context.Background(), cfg, w.scaled(0.01), 0, 0, 2)
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("%d of %d failed, want all", res.Failed, res.Attempted)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "shadowd") {
		t.Errorf("failures do not name the cause: %v", res.Failures)
	}
}

// BENCHMARK.json is the contract the acceptance driver reads; the tables in
// workloads.go are what the program prints. They must say the same thing.
func TestContractFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var c struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) || len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end, %d per-layer metrics; the tables %d, %d, %d",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s in the table", i, c.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for i, m := range endToEnd {
		if g := c.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the table", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		if g := c.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the table", i, g, m)
		}
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
}

// Comparing a result with itself finds nothing; a gated metric 30 % worse,
// a workload gone missing and failed operations each turn the exit status.
func TestCompareResults(t *testing.T) {
	s := func(m float64) summary { return summarize([]float64{m * 0.99, m, m * 1.01}) }
	mk := func(rss float64, failed int) resultFile {
		return resultFile{Schema: resultSchema, Labels: map[string]string{"seed": "1", "seconds": "15"}, Workloads: []workloadResult{{
			Name: "kv-embed-mem", Attempted: 10, Failed: failed, Timed: map[string]summary{
				"setup_s": s(0.1), "ops_per_s": s(30000), "sim_cycles_per_op": s(900), "cpu_us_per_op": s(30), "peak_rss_mb": s(rss),
			}}}}
	}
	var out bytes.Buffer
	if compareResults(&out, mk(25, 0), mk(25, 0)) {
		t.Errorf("a result is worse than itself:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "not gated") {
		t.Errorf("the ungated timed metrics are not shown:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, mk(25, 0), mk(32.5, 0)) || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("30%% more memory was not reported:\n%s", out.String())
	}
	if !compareResults(&out, mk(25, 0), mk(25, 3)) {
		t.Error("failed operations in the second file were not reported")
	}
	if !compareResults(&out, mk(25, 0), resultFile{Schema: resultSchema}) {
		t.Error("a workload missing from the second file was not reported")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	if err := mk(25, 0).write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Claim != nil || back.Workloads[0].Timed["ops_per_s"].Median != 30000 {
		t.Errorf("result file did not round-trip: %+v", back)
	}
	// Files measured for different lengths are refused, not compared.
	other := mk(25, 0)
	other.Labels["seconds"] = "3"
	if err := other.write(filepath.Join(dir, "o.json")); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles([]string{path, filepath.Join(dir, "o.json")}); code != 2 {
		t.Errorf("comparing a 15 s run with a 3 s run exits %d, want 2", code)
	}
}
