package main

import "fmt"

type kind uint8

const (
	kindSim   kind = iota // cycle-level simulator, sim.Run
	kindEmbed             // in-process kv + oram.Queue + core + crypt + store
	kindHTTP              // shadowd subprocess over HTTP
)

// workload is one set of inputs. Sizes are chosen so one repetition measures
// for about 2.5 s on the 2-core box the benchmark was defined on; a run
// repeats until --seconds are covered. A repetition's child process gets the
// whole struct, so tests can run shrunken copies.
type workload struct {
	Name string
	Why  string
	Kind kind

	// Simulator workloads.
	Profile string
	Scheme  string
	Refs    int // memory references per core

	// KV workloads.
	L          int
	Keys       int
	Ops        int
	Clients    int
	Backend    string  // mem | file
	Zipf       float64 // 0 = uniform
	ReadFrac   float64
	DeleteFrac float64
}

var workloads = []workload{
	{
		Name: "sim-mcf-dyn3", Kind: kindSim, Profile: "mcf", Scheme: "dynamic-3", Refs: 90000,
		Why: "paper headline scheme on one in-order core: engine and duplication policy both do most of the work; reference cell for simulator speed",
	},
	{
		Name: "sim-mcf-tiny", Kind: kindSim, Profile: "mcf", Scheme: "tiny", Refs: 190000,
		Why: "same trace with NopPolicy: bypasses core entirely, so a policy optimisation must not move it; its cycles over dyn3's is the paper's speedup",
	},
	{
		Name: "sim-mcf-quad", Kind: kindSim, Profile: "mcf", Scheme: "dynamic-3-pipe-c4-wbd-core4", Refs: 20000,
		Why: "pipelined, 4-channel, decoupled write-back, 4 cores: the variant-axis and MSHR code paths the serial cell never runs",
	},
	{
		Name: "kv-http-zipf", Kind: kindHTTP, L: 12, Keys: 4096, Ops: 17000, Clients: 2, Backend: "mem",
		Zipf: 1.2, ReadFrac: 0.70, DeleteFrac: 0.02,
		Why: "fresh shadowd, 2 closed-loop keep-alive clients, Zipf hot keys: HTTP and the batcher do most of the work, the engine little",
	},
	{
		Name: "kv-embed-mem", Kind: kindEmbed, L: 12, Keys: 4096, Ops: 90000, Clients: 1, Backend: "mem",
		ReadFrac: 0.50,
		Why:      "shadowd's serveOne composition in-process, uniform keys, 50/50: engine, crypt and allocation do the work with HTTP bypassed",
	},
	{
		Name: "kv-embed-file", Kind: kindEmbed, L: 14, Keys: 16384, Ops: 34000, Clients: 1, Backend: "file",
		ReadFrac: 0.20,
		Why:      "same composition on store.File, write-heavy, 4x the keys on a 4x tree: the backend seam and its syscalls do most of the work",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ops is how many operations one repetition attempts.
func (w workload) ops() int {
	if w.Kind == kindSim {
		return w.Refs * w.cores()
	}
	return w.Ops
}

// metric is one named number of the contract in BENCHMARK.json.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's value it may worsen
}

// endToEnd lists the gated metrics: a later change is rejected when one of
// them gets worse by more than its bound. Every metric is defined on every
// workload (the contract requires it). A run's value is the median of its
// timed repetitions.
//
// Only metrics that repeat are here. Throughput, CPU time per operation and
// the KV latency percentiles are what a user feels first, but on the shared
// 2-core box the benchmark was defined on they spread by more than any bound
// worth having (README, Repeatability), and ISSUE 11's rule for such a metric
// is to demote it, not to widen its bound: they are measured the same way and
// reported in the per-layer list, ungated. setup_s is host time too; the
// contract requires it here and gives it the widest bound.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// timedValues is what one timed repetition contributes to each metric that
// is taken with tracing off: the end-to-end ones and the per-layer ones
// listed under "timed repetitions" below.
var timedValues = map[string]func(repResult) float64{
	"setup_s":               func(r repResult) float64 { return r.SetupS },
	"sim_cycles_per_op":     func(r repResult) float64 { return float64(r.SimCycles) / float64(r.Ops) },
	"peak_rss_mb":           func(r repResult) float64 { return r.PeakRSSMB },
	"ops_per_s":             func(r repResult) float64 { return float64(r.Ops) / r.WallS },
	"cpu_us_per_op":         func(r repResult) float64 { return r.CPUS * 1e6 / float64(r.CPUOps) },
	"kv.p50_us":             func(r repResult) float64 { return r.P50us },
	"kv.p99_us":             func(r repResult) float64 { return r.P99us },
	"kv.p999_us":            func(r repResult) float64 { return r.P999us },
	"kv.max_us":             func(r repResult) float64 { return r.Maxus },
	"go.alloc_bytes_per_op": func(r repResult) float64 { return float64(r.AllocBytes) / float64(r.Ops) },
	"go.allocs_per_op":      func(r repResult) float64 { return float64(r.Allocs) / float64(r.Ops) },
	"go.gc_pause_ms":        func(r repResult) float64 { return r.GCPauseMs },
}

// perLayer lists the traced run's numbers. A metric that has no meaning on
// a workload (a store count on a simulator cell) is reported as 0 there.
var perLayer = []metric{
	// Simulator, host time per layer and the counts that explain it.
	{Name: "trace.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cpu.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "oram.self_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "core.calls_per_req", Unit: "count", Better: "lower"},
	{Name: "oram.reqs_per_ref", Unit: "count", Better: "lower"},
	{Name: "oram.accesses_per_req", Unit: "count", Better: "lower"},
	{Name: "oram.onchip_frac", Unit: "frac", Better: "higher"},
	{Name: "oram.shadow_forward_frac", Unit: "frac", Better: "higher"},
	{Name: "queue.coalesced_frac", Unit: "frac", Better: "higher"},
	{Name: "queue.max_depth", Unit: "count", Better: "lower"},
	{Name: "dram.blocks_per_req", Unit: "count", Better: "lower"},
	{Name: "dram.row_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "dram.probe_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dram.est_share", Unit: "frac", Better: "lower"},
	// Simulated time: where the modelled machine's cycles go.
	{Name: "ledger.queue_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger.coalesce_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger.posmap_walk_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger.path_read_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger.evict_drain_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger.violations", Unit: "count", Better: "lower"},
	// Functional ORAM under the KV schema.
	{Name: "kv.frame_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kv.dir_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "oram.functional_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "oram.heavy_op_frac", Unit: "frac", Better: "lower"},
	{Name: "oram.anomalies", Unit: "count", Better: "lower"},
	{Name: "oram.stash_overflows", Unit: "count", Better: "lower"},
	{Name: "crypt.probe_encrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "crypt.probe_decrypt_ns", Unit: "ns", Better: "lower"},
	{Name: "crypt.probe_allocs_per_block", Unit: "count", Better: "lower"},
	{Name: "crypt.est_share", Unit: "frac", Better: "lower"},
	{Name: "store.read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "store.write_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "store.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "store.share", Unit: "frac", Better: "lower"},
	{Name: "store.bytes_written_per_user_byte", Unit: "count", Better: "lower"},
	{Name: "store.probe_read_ns", Unit: "ns", Better: "lower"},
	{Name: "store.probe_write_ns", Unit: "ns", Better: "lower"},
	// shadowd seen from outside the process.
	{Name: "http.client_mean_us", Unit: "us", Better: "lower"},
	{Name: "shadowd.service_mean_us", Unit: "us", Better: "lower"},
	{Name: "http.overhead_us_per_op", Unit: "us", Better: "lower"},
	{Name: "http.overhead_share", Unit: "frac", Better: "lower"},
	{Name: "shadowd.cpu_user_us_per_op", Unit: "us", Better: "lower"},
	{Name: "shadowd.cpu_sys_us_per_op", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "frac", Better: "lower"},
	// Timed repetitions, reported and not gated: what a user feels (host
	// throughput, CPU per operation, exact KV latency percentiles) and the Go
	// runtime of the process under test.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "kv.p50_us", Unit: "us", Better: "lower"},
	{Name: "kv.p99_us", Unit: "us", Better: "lower"},
	{Name: "kv.p999_us", Unit: "us", Better: "lower"},
	{Name: "kv.max_us", Unit: "us", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Harness.
	{Name: "harness.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "layers.sum_frac", Unit: "frac", Better: "higher"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}
