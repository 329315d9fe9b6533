package main

import (
	"fmt"
	"runtime"
	"time"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/dram"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
	"shadowblock/internal/tree"
)

// cores is how many cores a simulator workload's scheme drives.
func (w workload) cores() int {
	if w.Kind != kindSim {
		return 1
	}
	s, err := experiments.ParseScheme(w.Scheme)
	if err != nil || s.Cores == 0 {
		return 1
	}
	return s.Cores
}

// simSpec assembles the cell the way shadowsim and paperbench do: Table I's
// in-order core(s), the default L=18 geometry, the scheme's variant axes.
func simSpec(w workload, seed uint64) (sim.Spec, error) {
	p, ok := trace.ByName(w.Profile)
	if !ok {
		return sim.Spec{}, fmt.Errorf("unknown trace profile %q", w.Profile)
	}
	s, err := experiments.ParseScheme(w.Scheme)
	if err != nil {
		return sim.Spec{}, err
	}
	ocfg := oram.Default()
	ocfg.TimingProtection = s.TP
	ocfg.TreetopLevels = s.Treetop
	ocfg.XOR = s.XOR
	ocfg.Pipeline = s.Pipeline
	ocfg.Channels = s.Channels
	ocfg.WBDecoupled = s.WBDecoupled
	c := cpu.InOrder()
	if s.Cores > 0 {
		c.Cores = s.Cores
	}
	return sim.Spec{Profile: p, CPU: c, Refs: w.Refs, Seed: seed,
		Insecure: s.Insecure, Engine: s.Engine, ORAM: ocfg, Policy: s.Policy}, nil
}

// buildEngine is sim.Run's construction sequence: unbound policy, engine
// through the registry (which binds the policy), front-end queue. With a
// tracer the policy is wrapped before the engine sees it.
func buildEngine(spec sim.Spec, tr *tracer) (oram.Engine, *core.Policy, error) {
	engine := spec.Engine
	if engine == "" {
		engine = oram.PathEngine
	}
	var pol *core.Policy
	var dup oram.DupPolicy // typed nil must stay interface nil
	if spec.Policy != nil {
		p, err := core.NewUnbound(*spec.Policy)
		if err != nil {
			return nil, nil, err
		}
		pol, dup = p, p
		if tr != nil {
			dup = tracedPolicy{inner: p, tr: tr}
		}
	}
	eng, err := oram.NewEngine(engine, spec.ORAM, dup)
	return eng, pol, err
}

// composed is what the hand-assembled simulator run returns: the numbers
// sim.Run would have put in sim.Metrics.
type composed struct {
	Cycles int64
	CPU    cpu.Result
	ORAM   oram.Stats
	Queue  oram.QueueStats
	Mem    dram.Stats
}

// composeSim makes the same public calls sim.Run makes, because sim.Run
// offers no way to put a decorator between its layers. With tr == nil and
// mc == nil it is sim.Run without the report; the tests pin that both forms
// produce sim.Run's cycles.
func composeSim(spec sim.Spec, tr *tracer, mc *metrics.Collector) (composed, error) {
	tr.begin(laySetup, true)
	srcs := make([]trace.Source, spec.CPU.Cores)
	for i := range srcs {
		s, err := spec.Profile.NewStream(spec.Refs, spec.Seed+uint64(i)*1000003)
		if err != nil {
			return composed{}, err
		}
		srcs[i] = s
		if tr != nil {
			srcs[i] = tracedSource{inner: s, tr: tr}
		}
	}
	eng, pol, err := buildEngine(spec, tr)
	if err != nil {
		return composed{}, err
	}
	queue := oram.NewQueue(eng, spec.CPU.Cores)
	if mc != nil {
		eng.SetMetrics(mc)
		if pol != nil {
			pol.SetMetrics(mc)
		}
		spec.CPU.Metrics = mc
		queue.SetMetrics(mc)
	}
	var mem cpu.CoreMemory = queue
	if tr != nil {
		mem = tracedMemory{inner: queue, tr: tr}
	}
	tr.end()

	tr.begin(layCPU, true)
	res, err := cpu.RunSources(spec.CPU, srcs, mem)
	tr.end()
	if err != nil {
		return composed{}, err
	}
	tr.begin(layORAM, true)
	cycles := max(res.Cycles, eng.Drain())
	tr.end()
	return composed{Cycles: cycles, CPU: res, ORAM: eng.Stats(), Queue: queue.Stats(), Mem: eng.MemStats()}, nil
}

// runSim is one simulator repetition in this process: one sim.Run, or its
// hand-composed equal when traced.
func runSim(w workload, seed uint64, traced bool) (repResult, error) {
	spec, err := simSpec(w, seed)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{Ops: w.ops(), Layers: map[string]float64{}}

	// Set-up is what a caller pays before the first reference: building the
	// engine (initial placement of every block) and binding the policy.
	// sim.Run builds its own, so this one is built only to be timed, and is
	// collected before the measured run so it does not count towards its
	// peak memory.
	t0 := time.Now()
	if _, _, err := buildEngine(spec, nil); err != nil {
		return repResult{}, err
	}
	r.SetupS = time.Since(t0).Seconds()
	runtime.GC()

	var tr *tracer
	var mc *metrics.Collector
	if traced {
		tr = newTracer(uint64(max(r.Ops/200, 1)), maxSpansPerRep)
		mc = metrics.New(metrics.Options{Ledger: true})
	}
	var out composed
	m := startMeter()
	if traced {
		out, err = composeSim(spec, tr, mc)
	} else {
		var sm sim.Metrics
		sm, err = sim.Run(spec)
		out = composed{Cycles: sm.Cycles, CPU: sm.CPU, ORAM: sm.ORAM, Queue: sm.Queue, Mem: sm.Mem}
	}
	m.stop(&r)
	if err != nil {
		return repResult{}, err
	}

	r.SimCycles = out.Cycles
	if got := int(out.CPU.References); got != r.Ops {
		r.fail(r.Ops, "simulator retired %d references, want %d", got, r.Ops)
	}
	if out.ORAM.Anomalies > 0 || out.ORAM.StashOverflows > 0 {
		r.fail(int(out.ORAM.Anomalies+out.ORAM.StashOverflows), "engine reports %d anomalies, %d stash overflows",
			out.ORAM.Anomalies, out.ORAM.StashOverflows)
	}
	if traced {
		simLayers(&r, spec, out, tr, mc)
		r.Spans = tr.spans
	}
	return r, nil
}

// simLayers turns the traced repetition's spans and the program's own
// counters into the per-layer metrics.
func simLayers(r *repResult, spec sim.Spec, out composed, tr *tracer, mc *metrics.Collector) {
	tr.extrapolate(layCore, layORAM)
	L := r.Layers
	refs := float64(out.CPU.References)
	reqs := float64(out.ORAM.Requests)
	blocks := float64(out.Mem.Reads + out.Mem.Writes)
	wallNS := r.WallS * 1e9
	L["trace.self_ns_per_ref"] = float64(tr.self[layTrace]) / refs
	L["cpu.self_ns_per_ref"] = float64(tr.self[layCPU]) / refs
	L["oram.reqs_per_ref"] = reqs / refs
	L["queue.max_depth"] = float64(out.Queue.MaxDepth)
	if reqs > 0 {
		L["oram.self_ns_per_req"] = float64(tr.self[layORAM]) / reqs
		L["core.self_ns_per_req"] = float64(tr.self[layCore]) / reqs
		L["core.calls_per_req"] = float64(tr.calls[layCore]) / reqs
		L["oram.accesses_per_req"] = float64(out.ORAM.ORAMAccesses) / float64(out.ORAM.Requests)
		L["oram.onchip_frac"] = float64(out.ORAM.OnChipHits) / float64(out.ORAM.Requests)
		L["oram.shadow_forward_frac"] = float64(out.ORAM.ShadowForwards) / float64(out.ORAM.Requests)
		L["dram.blocks_per_req"] = blocks / reqs
	}
	if presented := float64(out.Queue.Issued + out.Queue.OnChip + out.Queue.Coalesced); presented > 0 {
		L["queue.coalesced_frac"] = float64(out.Queue.Coalesced) / presented
	}
	if rows := float64(out.Mem.RowHits + out.Mem.RowMisses); rows > 0 {
		L["dram.row_hit_frac"] = float64(out.Mem.RowHits) / rows
	}
	probe := probeDRAM(spec.ORAM)
	L["dram.probe_ns_per_block"] = probe
	L["dram.est_share"] = probe * blocks / wallNS

	if led := mc.Ledger.Report(); led != nil {
		total := float64(led.CompleteCycles + led.Stage("coalesce").Cycles)
		for _, st := range []string{"queue_wait", "coalesce", "posmap_walk", "path_read", "evict_drain"} {
			L["ledger."+st+"_frac"] = float64(led.Stage(st).Cycles) / total
		}
		L["ledger.violations"] = float64(led.Violations)
		if led.Violations > 0 {
			r.fail(int(led.Violations), "cycle ledger reports %d conservation violations", led.Violations)
		}
	}

	var sum int64
	for _, l := range []layer{laySetup, layTrace, layCPU, layORAM, layCore} {
		sum += tr.self[l]
	}
	L["layers.sum_frac"] = float64(sum) / wallNS
	L["harness.self_ns_per_op"] = (wallNS - float64(sum)) / refs
	r.Shares = map[string]float64{
		"setup": float64(tr.self[laySetup]) / wallNS,
		"trace": float64(tr.self[layTrace]) / wallNS,
		"cpu":   float64(tr.self[layCPU]) / wallNS,
		"oram":  float64(tr.self[layORAM]) / wallNS,
		"core":  float64(tr.self[layCore]) / wallNS,
	}
}

// probeDRAM times dram.Memory.ReserveBatch on its own, on batches shaped
// like the engine's path reads (every slot of a random root-to-leaf path in
// the real layout), and returns host nanoseconds per block. Multiplied by
// the blocks a run moved it estimates the DRAM model's share of host time,
// which no seam exposes directly.
func probeDRAM(cfg oram.Config) float64 {
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		return 0
	}
	dcfg := cfg.DRAM
	layout := tree.NewLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes)
	if cfg.Channels > 0 {
		dcfg.Channels = cfg.Channels
		if layout, err = tree.NewChannelLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes, cfg.Channels); err != nil {
			return 0
		}
	}
	mem, err := dram.New(dcfg)
	if err != nil {
		return 0
	}
	r := rng.NewXoshiro(1)
	path := make([]int, geo.Levels())
	addrs := make([]uint64, 0, geo.PathLen())
	done := make([]int64, geo.PathLen())
	const batches = 20000
	var now int64
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		addrs = addrs[:0]
		for _, b := range geo.Path(uint32(r.Intn(int(geo.NumLeaves()))), path) {
			for s := 0; s < geo.Z; s++ {
				addrs = append(addrs, layout.SlotAddr(b, s))
			}
		}
		now = mem.ReserveBatch(now, dram.OpRead, addrs, done)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(batches*geo.PathLen())
}
