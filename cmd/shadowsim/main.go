// Command shadowsim runs one workload against one memory-system scheme and
// prints the metric breakdown of eq. 1 (total = data access + DRI) along
// with controller and DRAM counters.
//
// Usage:
//
//	shadowsim -bench hmmer -scheme dynamic-3 -tp
//	shadowsim -bench mcf -scheme static-7
//	shadowsim -bench namd -scheme insecure
//	shadowsim -bench hmmer -scheme dynamic-3 -metrics m.json -trace t.json
//	shadowsim -bench mcf -scheme dynamic-3 -debug localhost:6060
//
// With -metrics the run additionally emits a machine-readable JSON report
// (latency percentiles, epoch time-series, counters, and the
// cycle-attribution ledger — disable the latter with -no-ledger); with
// -trace it emits a Chrome trace-event JSON of request lifecycles loadable
// in Perfetto; -debug serves the live debug mux (/debug/pprof,
// /debug/vars, and the /debug/shadow simulation snapshot). See the
// README's "Observability" section for the schemas.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

func main() {
	bench := flag.String("bench", "hmmer", "workload: "+strings.Join(trace.Names(), ", "))
	scheme := flag.String("scheme", "dynamic-3", "insecure | tiny | rd | hd | static-N | dynamic-N, each but insecure also with -pipe / -cN / -wbd suffixes, all with a -coreN suffix; an engine: prefix (e.g. ring:dynamic-3) selects a registered ORAM engine")
	tp := flag.Bool("tp", false, "enable timing protection (constant-rate requests)")
	pipeline := flag.Bool("pipeline", false, "pipelined request engine (same as a -pipe scheme suffix)")
	channels := flag.Int("channels", 0, "multi-channel memory system with channel-interleaved layout (same as a -cN scheme suffix; 0 = legacy)")
	cores := flag.Int("cores", 0, "cores issuing into the shared memory system (same as a -coreN scheme suffix; 0 = the CPU model's default)")
	wb := flag.String("wb", "", "writeback scheduler: coupled | decoupled (same as a -wbd scheme suffix; empty = the scheme's default)")
	refs := flag.Int("refs", 60000, "memory references per core")
	seed := flag.Uint64("seed", 7, "workload seed")
	treetop := flag.Int("treetop", 0, "cache the top N tree levels on-chip")
	xor := flag.Bool("xor", false, "XOR compression comparator")
	cpuType := flag.String("cpu", "inorder", "inorder | o3")
	level := flag.Int("L", 0, "override tree leaf level (default 18)")
	metricsOut := flag.String("metrics", "", "write a metrics JSON report to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON to this file")
	debugAddr := flag.String("debug", "", "serve the live debug mux (/debug/pprof, /debug/vars, /debug/shadow) on this address (e.g. localhost:6060)")
	window := flag.Int64("metrics-window", 0, "time-series window in cycles (0 = default)")
	traceCap := flag.Int("trace-cap", 0, "trace ring-buffer capacity in events (0 = default)")
	noLedger := flag.Bool("no-ledger", false, "disable the cycle-attribution ledger in the metrics report")
	flag.Parse()

	p, ok := trace.ByName(*bench)
	if !ok {
		fail(fmt.Errorf("unknown benchmark %q", *bench))
	}
	s, err := experiments.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	ocfg := oram.Default()
	ocfg.TimingProtection = *tp || s.TP
	ocfg.TreetopLevels = *treetop
	ocfg.XOR = *xor
	ocfg.Pipeline = s.Pipeline || *pipeline
	ocfg.Channels = s.Channels
	if *channels > 0 {
		ocfg.Channels = *channels
	}
	ocfg.WBDecoupled = s.WBDecoupled
	switch *wb {
	case "":
	case "coupled":
		ocfg.WBDecoupled = false
	case "decoupled":
		ocfg.WBDecoupled = true
	default:
		fail(fmt.Errorf("unknown -wb value %q (want coupled or decoupled)", *wb))
	}
	if s.Insecure && ocfg.Channels > 0 {
		fail(fmt.Errorf("the insecure baseline has no ORAM layout to interleave"))
	}
	if s.Insecure && ocfg.WBDecoupled {
		fail(fmt.Errorf("the insecure baseline has no writeback path to decouple"))
	}
	if *level > 0 {
		ocfg.L = *level
	}

	spec := sim.Spec{Profile: p, Refs: *refs, Seed: *seed, ORAM: ocfg,
		Insecure: s.Insecure, Engine: s.Engine, Policy: s.Policy}
	switch *cpuType {
	case "inorder":
		spec.CPU = cpu.InOrder()
	case "o3":
		spec.CPU = cpu.O3()
	default:
		fail(fmt.Errorf("unknown cpu type %q", *cpuType))
	}
	if s.Cores > 0 {
		spec.CPU.Cores = s.Cores
	}
	if *cores > 0 {
		spec.CPU.Cores = *cores
	}

	var col *metrics.Collector
	if *metricsOut != "" || *traceOut != "" || *debugAddr != "" {
		col = metrics.New(metrics.Options{
			WindowCycles:  *window,
			Tracing:       *traceOut != "",
			TraceCapacity: *traceCap,
			Ledger:        !*noLedger,
		})
		spec.Metrics = col
	}

	if *debugAddr != "" {
		srv, err := metrics.ServeDebug(*debugAddr, col)
		if err != nil {
			fail(fmt.Errorf("debug: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "shadowsim: debug mux on http://%s/debug/{pprof,vars,shadow}\n", srv.Addr())
	}

	m, err := sim.Run(spec)
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload        %s (%d refs, seed %d)\n", p.Name, *refs, *seed)
	fmt.Printf("scheme          %s (engine=%s tp=%v treetop=%d xor=%v pipeline=%v channels=%d wb=%s cpu=%s cores=%d)\n",
		*scheme, engineName(s), ocfg.TimingProtection, *treetop, *xor, ocfg.Pipeline, ocfg.Channels, wbName(ocfg.WBDecoupled), *cpuType, spec.CPU.Cores)
	fmt.Printf("total cycles    %d\n", m.Cycles)
	fmt.Printf("  data access   %d (%.1f%%)\n", m.DataAccess, 100*float64(m.DataAccess)/float64(m.Cycles))
	fmt.Printf("  DRI           %d (%.1f%%)\n", m.DRI, 100*float64(m.DRI)/float64(m.Cycles))
	fmt.Printf("energy          %.0f\n", m.Energy)
	fmt.Printf("references      %d (L1 %d, L2 %d, LLC misses %d, writebacks %d)\n",
		m.CPU.References, m.CPU.L1Hits, m.CPU.L2Hits, m.CPU.LLCMisses, m.CPU.Writebacks)
	if !spec.Insecure {
		o := m.ORAM
		fmt.Printf("ORAM requests   %d (stash hits %d, shadow hits %d, on-chip rate %.3f)\n",
			o.Requests, o.StashHits, o.ShadowStashHits, m.OnChipHitRate)
		fmt.Printf("ORAM accesses   %d (pm %d, dummies %d, evictions %d, shadow forwards %d)\n",
			o.ORAMAccesses, o.PMAccesses, o.DummyAccesses, o.EvictionPhases, o.ShadowForwards)
		if spec.CPU.Cores > 1 {
			q := m.Queue
			fmt.Printf("front end       %d issued, %d on-chip, %d coalesced, max depth %d\n",
				q.Issued, q.OnChip, q.Coalesced, q.MaxDepth)
		}
		if ocfg.Pipeline {
			fmt.Printf("pipeline        %d overlapped path reads, %d writeback cycles overlapped\n",
				o.PipelinedReads, o.OverlapCycles)
		}
		if ocfg.WBDecoupled {
			fmt.Printf("writeback       %d queued, %d slotted, %d forced, %d flushed (max pending %d, %d deferral cycles)\n",
				o.WBEnqueued, o.WBSlotted, o.WBForced, o.WBFlushed, o.WBMaxPending, o.WBDeferralCycles)
		}
		rowRate := "n/a"
		if rows := m.Mem.RowHits + m.Mem.RowMisses; rows > 0 {
			rowRate = fmt.Sprintf("%.2f", float64(m.Mem.RowHits)/float64(rows))
		}
		fmt.Printf("DRAM            reads %d, writes %d, row hit rate %s\n",
			m.Mem.Reads, m.Mem.Writes, rowRate)
		if o.StashOverflows > 0 || o.Anomalies > 0 {
			fmt.Printf("WARNING         overflows=%d anomalies=%d\n", o.StashOverflows, o.Anomalies)
		}
		if m.MeanPartition > 0 {
			fmt.Printf("mean partition  %.1f\n", m.MeanPartition)
		}
	}
	if col != nil {
		if lat := m.ReqLatency; lat.Count > 0 {
			fmt.Printf("req latency     p50 %d, p90 %d, p99 %d, max %d (mean %.0f over %d requests)\n",
				lat.P50, lat.P90, lat.P99, lat.Max, lat.Mean, lat.Count)
		}
		if m.Obs != nil && m.Obs.Ledger != nil {
			led := m.Obs.Ledger
			total := led.CompleteCycles + led.Stage("coalesce").Cycles
			fmt.Printf("attribution     %d attributed cycles over %d requests (+%d coalesced), %d violations\n",
				total, led.Requests, led.Coalesced, led.Violations)
			for _, s := range led.Stages {
				if s.Cycles == 0 && s.Count == 0 {
					continue
				}
				fmt.Printf("  %-13s %12d cycles (%5.1f%%)  x%d\n",
					s.Stage, s.Cycles, 100*float64(s.Cycles)/float64(max(total, 1)), s.Count)
			}
		}
		if m.Obs != nil {
			m.Obs.Labels["scheme"] = *scheme
		}
		if *metricsOut != "" {
			if err := m.Obs.WriteFile(*metricsOut); err != nil {
				fail(err)
			}
			fmt.Printf("metrics         %s\n", *metricsOut)
		}
		if *traceOut != "" {
			if err := col.WriteTraceFile(*traceOut, map[string]string{
				"bench": p.Name, "scheme": *scheme,
			}); err != nil {
				fail(err)
			}
			fmt.Printf("trace           %s (%d events, %d dropped by the ring)\n",
				*traceOut, col.Trace.Len(), col.Trace.Dropped())
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "shadowsim:", err)
	os.Exit(1)
}

func engineName(s experiments.Scheme) string {
	switch {
	case s.Insecure:
		return "none"
	case s.Engine != "":
		return s.Engine
	}
	return oram.PathEngine
}

func wbName(decoupled bool) string {
	if decoupled {
		return "decoupled"
	}
	return "coupled"
}
