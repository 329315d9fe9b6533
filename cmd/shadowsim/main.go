// Command shadowsim runs one workload against one memory-system scheme and
// prints the metric breakdown of eq. 1 (total = data access + DRI) along
// with controller and DRAM counters.
//
// Usage:
//
//	shadowsim -bench hmmer -scheme dynamic-3 -tp
//	shadowsim -bench mcf -scheme static-7
//	shadowsim -bench namd -scheme insecure
//	shadowsim -bench mcf -scheme dynamic-3-pipe-c4-wbd-core4
//	shadowsim -bench mcf -scheme ring:dynamic-3
//	shadowsim -bench hmmer -scheme dynamic-3 -metrics m.json -trace t.json
//	shadowsim -bench mcf -scheme dynamic-3 -debug localhost:6060
//
// The -scheme string is the whole name of the run, in the grammar
// experiments.ParseScheme documents:
//
//	[engine:]base[-pipe][-cN][-wbd][-coreN]
//	base = insecure | tiny | rd | hd | static-N | dynamic-N
//
// -tp, -treetop, -xor, -L and -cpu are the axes with no suffix spelling.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shadowsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "hmmer", "workload: "+strings.Join(trace.Names(), ", "))
	scheme := fs.String("scheme", "dynamic-3", "[engine:]base[-pipe][-cN][-wbd][-coreN], base = insecure | tiny | rd | hd | static-N | dynamic-N; engine = "+strings.Join(oram.Engines(), " | ")+", path when omitted")
	tp := fs.Bool("tp", false, "enable timing protection (constant-rate requests)")
	refs := fs.Int("refs", 60000, "memory references per core")
	seed := fs.Uint64("seed", 7, "workload seed")
	treetop := fs.Int("treetop", 0, "cache the top N tree levels on-chip")
	xor := fs.Bool("xor", false, "XOR compression comparator")
	cpuType := fs.String("cpu", "inorder", "inorder | o3")
	level := fs.Int("L", 0, "override tree leaf level (default 18)")
	metricsOut := fs.String("metrics", "", "write a metrics JSON report to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON to this file")
	debugAddr := fs.String("debug", "", "serve the live debug mux (/debug/pprof, /debug/vars, /debug/shadow) on this address (e.g. localhost:6060)")
	window := fs.Int64("metrics-window", 0, "time-series window in cycles (0 = default)")
	traceCap := fs.Int("trace-cap", 0, "trace ring-buffer capacity in events (0 = default)")
	noLedger := fs.Bool("no-ledger", false, "disable the cycle-attribution ledger in the metrics report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "shadowsim:", err)
		return 1
	}

	p, ok := trace.ByName(*bench)
	if !ok {
		return fail(fmt.Errorf("unknown benchmark %q", *bench))
	}
	s, err := experiments.ParseScheme(*scheme)
	if err != nil {
		return fail(err)
	}
	s.TP = *tp
	s.Treetop = *treetop
	s.XOR = *xor
	var cpuCfg cpu.Config
	switch *cpuType {
	case "inorder":
		cpuCfg = cpu.InOrder()
	case "o3":
		cpuCfg = cpu.O3()
	default:
		return fail(fmt.Errorf("unknown cpu type %q", *cpuType))
	}
	spec := s.Spec(p, cpuCfg, *refs, *seed)
	if *level > 0 {
		spec.ORAM.L = *level
	}
	ocfg := spec.ORAM

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
			return fail(fmt.Errorf("debug: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "shadowsim: debug mux on http://%s/debug/{pprof,vars,shadow}\n", srv.Addr())
	}

	m, err := sim.Run(spec)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "workload        %s (%d refs, seed %d)\n", p.Name, *refs, *seed)
	fmt.Fprintf(stdout, "scheme          %s (engine=%s tp=%v treetop=%d xor=%v pipeline=%v channels=%d wb=%s cpu=%s cores=%d)\n",
		*scheme, engineName(s), ocfg.TimingProtection, *treetop, *xor, ocfg.Pipeline, ocfg.Channels, wbName(ocfg.WBDecoupled), *cpuType, spec.CPU.Cores)
	fmt.Fprintf(stdout, "total cycles    %d\n", m.Cycles)
	fmt.Fprintf(stdout, "  data access   %d (%.1f%%)\n", m.DataAccess, 100*float64(m.DataAccess)/float64(m.Cycles))
	fmt.Fprintf(stdout, "  DRI           %d (%.1f%%)\n", m.DRI, 100*float64(m.DRI)/float64(m.Cycles))
	fmt.Fprintf(stdout, "energy          %.0f\n", m.Energy)
	fmt.Fprintf(stdout, "references      %d (L1 %d, L2 %d, LLC misses %d, writebacks %d)\n",
		m.CPU.References, m.CPU.L1Hits, m.CPU.L2Hits, m.CPU.LLCMisses, m.CPU.Writebacks)
	if !spec.Insecure {
		o := m.ORAM
		fmt.Fprintf(stdout, "ORAM requests   %d (stash hits %d, shadow hits %d, on-chip rate %.3f)\n",
			o.Requests, o.StashHits, o.ShadowStashHits, m.OnChipHitRate)
		fmt.Fprintf(stdout, "ORAM accesses   %d (pm %d, dummies %d, evictions %d, shadow forwards %d)\n",
			o.ORAMAccesses, o.PMAccesses, o.DummyAccesses, o.EvictionPhases, o.ShadowForwards)
		if spec.CPU.Cores > 1 {
			q := m.Queue
			fmt.Fprintf(stdout, "front end       %d issued, %d on-chip, %d coalesced, max depth %d\n",
				q.Issued, q.OnChip, q.Coalesced, q.MaxDepth)
		}
		if ocfg.Pipeline {
			fmt.Fprintf(stdout, "pipeline        %d overlapped path reads, %d writeback cycles overlapped\n",
				o.PipelinedReads, o.OverlapCycles)
		}
		if ocfg.WBDecoupled {
			fmt.Fprintf(stdout, "writeback       %d queued, %d slotted, %d forced, %d flushed (max pending %d, %d deferral cycles)\n",
				o.WBEnqueued, o.WBSlotted, o.WBForced, o.WBFlushed, o.WBMaxPending, o.WBDeferralCycles)
		}
		rowRate := "n/a"
		if rows := m.Mem.RowHits + m.Mem.RowMisses; rows > 0 {
			rowRate = fmt.Sprintf("%.2f", float64(m.Mem.RowHits)/float64(rows))
		}
		fmt.Fprintf(stdout, "DRAM            reads %d, writes %d, row hit rate %s\n",
			m.Mem.Reads, m.Mem.Writes, rowRate)
		if o.StashOverflows > 0 || o.Anomalies > 0 {
			fmt.Fprintf(stdout, "WARNING         overflows=%d anomalies=%d\n", o.StashOverflows, o.Anomalies)
		}
		if m.MeanPartition > 0 {
			fmt.Fprintf(stdout, "mean partition  %.1f\n", m.MeanPartition)
		}
	}
	if col != nil {
		if lat := m.ReqLatency; lat.Count > 0 {
			fmt.Fprintf(stdout, "req latency     p50 %d, p90 %d, p99 %d, max %d (mean %.0f over %d requests)\n",
				lat.P50, lat.P90, lat.P99, lat.Max, lat.Mean, lat.Count)
		}
		if m.Obs != nil && m.Obs.Ledger != nil {
			led := m.Obs.Ledger
			total := led.CompleteCycles + led.Stage("coalesce").Cycles
			fmt.Fprintf(stdout, "attribution     %d attributed cycles over %d requests (+%d coalesced), %d violations\n",
				total, led.Requests, led.Coalesced, led.Violations)
			for _, s := range led.Stages {
				if s.Cycles == 0 && s.Count == 0 {
					continue
				}
				fmt.Fprintf(stdout, "  %-13s %12d cycles (%5.1f%%)  x%d\n",
					s.Stage, s.Cycles, 100*float64(s.Cycles)/float64(max(total, 1)), s.Count)
			}
		}
		if m.Obs != nil {
			m.Obs.Labels["scheme"] = *scheme
		}
		if *metricsOut != "" {
			if err := m.Obs.WriteFile(*metricsOut); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "metrics         %s\n", *metricsOut)
		}
		if *traceOut != "" {
			if err := col.WriteTraceFile(*traceOut, map[string]string{
				"bench": p.Name, "scheme": *scheme,
			}); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "trace           %s (%d events, %d dropped by the ring)\n",
				*traceOut, col.Trace.Len(), col.Trace.Dropped())
		}
	}
	return 0
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
