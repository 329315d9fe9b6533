// Package sim assembles full systems — CPU model, cache hierarchy, memory
// system — and runs workloads against them, producing the metric
// decomposition the paper's evaluation reports: total execution time =
// data access time + data request interval (eq. 1), energy, and hit rates.
package sim

import (
	"fmt"
	"math/bits"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	_ "shadowblock/internal/ring" // register the "ring" engine
	"shadowblock/internal/trace"
)

// Spec describes one run: a workload, a processor, and a memory system.
type Spec struct {
	Profile trace.Profile
	CPU     cpu.Config
	Refs    int    // memory references per core
	Seed    uint64 // workload seed

	// Memory system: Insecure bypasses ORAM entirely; otherwise Engine
	// names the registered ORAM engine ("" = "path", the Tiny ORAM
	// controller), ORAM is the engine configuration and Policy (nil =
	// no duplication) selects the duplication scheme.
	Insecure bool
	Engine   string
	ORAM     oram.Config
	Policy   *core.Config

	// Metrics, when set, is threaded through every layer (CPU, controller,
	// duplication policy) and fills Metrics.Obs and Metrics.ReqLatency.
	// Nil runs fully uninstrumented; the simulated timing is identical
	// either way.
	Metrics *metrics.Collector
}

// Metrics is the outcome of one run.
type Metrics struct {
	Cycles     int64
	DataAccess int64 // cycles spent serving real ORAM requests
	DRI        int64 // everything else: idle, compute, dummy requests

	CPU   cpu.Result
	ORAM  oram.Stats
	Queue oram.QueueStats // front-end traffic; zero for the insecure baseline
	Mem   dram.Stats

	Energy        float64
	OnChipHitRate float64
	MeanPartition float64 // dynamic partitioning only

	// ReqLatency digests the intended-data return latency (issue to
	// forward) of every ORAM request; zero unless Spec.Metrics was set.
	ReqLatency metrics.LatencySummary
	// Obs is the full observability report (histograms, time-series,
	// counters); nil unless Spec.Metrics was set.
	Obs *metrics.Report
}

// insecureMemory is the no-protection baseline: each LLC miss is one DRAM
// block access.
type insecureMemory struct {
	mem        *dram.Memory
	blockBytes int
	busy       int64
	lastFree   int64
}

func (m *insecureMemory) Issue(now int64, _ int, addr uint32, write bool) (int64, int64) {
	start := now
	if m.lastFree > start {
		start = m.lastFree
	}
	done := m.mem.Access(start, uint64(addr)*uint64(m.blockBytes), write, true)
	m.busy += done - start
	m.lastFree = done
	return done, done
}

// Run executes one spec.
func Run(spec Spec) (Metrics, error) {
	if spec.Refs <= 0 {
		return Metrics{}, fmt.Errorf("sim: Refs must be positive")
	}
	// One pull-based stream per core: the reference sequence is generated
	// on demand inside the CPU scheduler instead of being materialised up
	// front (cores × refs Access values — hundreds of MB at full scale).
	srcs := make([]trace.Source, spec.CPU.Cores)
	for i := range srcs {
		s, err := spec.Profile.NewStream(spec.Refs, spec.Seed+uint64(i)*1000003)
		if err != nil {
			return Metrics{}, err
		}
		srcs[i] = s
	}

	if spec.Insecure {
		dm, err := dram.New(spec.ORAM.DRAM)
		if err != nil {
			return Metrics{}, err
		}
		mem := &insecureMemory{mem: dm, blockBytes: spec.ORAM.BlockBytes}
		spec.CPU.Metrics = spec.Metrics
		res, err := cpu.RunSources(spec.CPU, srcs, mem)
		if err != nil {
			return Metrics{}, err
		}
		st := mem.mem.Stats()
		m := Metrics{
			Cycles:     res.Cycles,
			DataAccess: mem.busy,
			DRI:        res.Cycles - mem.busy,
			CPU:        res,
			Mem:        st,
			Energy:     Energy(st, res.Cycles),
		}
		finishObservation(spec, &m)
		return m, nil
	}

	// The identity trace-to-ORAM address mapping needs the whole footprint
	// to fit the data space; 2^(L+2) data blocks need L >= log2(fp)-2.
	if fp := spec.Profile.FootprintBlocks; fp > spec.ORAM.NumDataBlocks() {
		minL := bits.Len(uint(fp-1)) - 2
		return Metrics{}, fmt.Errorf(
			"sim: %s footprint (%d blocks) exceeds the ORAM data space (%d blocks at L=%d); need L >= %d or a scaled-down profile",
			spec.Profile.Name, fp, spec.ORAM.NumDataBlocks(), spec.ORAM.L, minL)
	}

	// Build the engine through the public seam: the policy is handed over
	// unbound and the engine's constructor binds it, the same single
	// construction path core.New takes (TestSeamGoldens pins the cycles).
	engine := spec.Engine
	if engine == "" {
		engine = oram.PathEngine
	}
	info, ok := oram.LookupEngine(engine)
	if !ok {
		return Metrics{}, fmt.Errorf("sim: unknown engine %q (known engines: %v)", engine, oram.Engines())
	}
	if err := info.Caps.Check(engine, spec.ORAM, spec.CPU.Cores); err != nil {
		return Metrics{}, err
	}
	var pol *core.Policy
	var dup oram.DupPolicy // typed nil must stay interface nil
	if spec.Policy != nil {
		p, err := core.NewUnbound(*spec.Policy)
		if err != nil {
			return Metrics{}, err
		}
		pol, dup = p, p
	}
	eng, err := info.New(spec.ORAM, dup)
	if err != nil {
		return Metrics{}, err
	}
	if spec.Metrics != nil {
		eng.SetMetrics(spec.Metrics)
		if pol != nil {
			pol.SetMetrics(spec.Metrics)
		}
		spec.CPU.Metrics = spec.Metrics
	}
	// All cores issue into the shared engine through the MSHR-style
	// front end; the queue satisfies cpu.CoreMemory directly. Trace block
	// addresses map one-to-one onto ORAM data blocks: the footprint check
	// above guarantees no two trace addresses alias onto one block
	// (folding them would silently inflate hit rates).
	queue := oram.NewQueue(eng, spec.CPU.Cores)
	if spec.Metrics != nil {
		queue.SetMetrics(spec.Metrics)
	}
	res, err := cpu.RunSources(spec.CPU, srcs, queue)
	if err != nil {
		return Metrics{}, err
	}
	cycles := res.Cycles
	if d := eng.Drain(); d > cycles {
		cycles = d
	}
	ost := eng.Stats()
	mst := eng.MemStats()
	m := Metrics{
		Cycles:     cycles,
		DataAccess: ost.DataAccessCycles,
		DRI:        cycles - ost.DataAccessCycles,
		CPU:        res,
		ORAM:       ost,
		Queue:      queue.Stats(),
		Mem:        mst,
		Energy:     Energy(mst, cycles),
	}
	if ost.Requests > 0 {
		m.OnChipHitRate = float64(ost.OnChipHits) / float64(ost.Requests)
	}
	if pol != nil {
		m.MeanPartition = pol.MeanPartition()
	}
	spec.Engine = engine // resolved name labels the report
	finishObservation(spec, &m)
	if ml, ok := eng.(interface{ MemLedger() []dram.ChannelLedger }); ok {
		attachMemLedger(&m, ml.MemLedger())
	}
	return m, nil
}

// attachMemLedger converts the DRAM model's per-channel/per-bank cycle
// attribution into the report's ledger section. The metrics package stays
// free of a dram dependency; the sim layer, which owns both, bridges them.
// No-op when the run was uninstrumented or the ledger recorded nothing.
func attachMemLedger(m *Metrics, led []dram.ChannelLedger) {
	if m.Obs == nil || m.Obs.Ledger == nil {
		return
	}
	out := make([]metrics.DRAMChannelReport, len(led))
	for ch, cl := range led {
		r := metrics.DRAMChannelReport{Channel: ch, BusBusy: cl.BusBusy, BusStall: cl.BusStall}
		for _, b := range cl.Banks {
			r.BankBusy += b.Busy
			r.BankStall += b.Stall
			r.Banks = append(r.Banks, metrics.DRAMBankReport{Busy: b.Busy, Stall: b.Stall})
		}
		out[ch] = r
	}
	m.Obs.Ledger.DRAM = out
}

// finishObservation digests the run's collector into the metrics, labelled
// with what the sim layer knows about the run. No-op without a collector.
func finishObservation(spec Spec, m *Metrics) {
	if spec.Metrics == nil {
		return
	}
	m.ReqLatency = spec.Metrics.ReqForward.Summary()
	m.Obs = spec.Metrics.Report(m.Cycles, map[string]string{
		"bench": spec.Profile.Name,
		"seed":  fmt.Sprint(spec.Seed),
		"refs":  fmt.Sprint(spec.Refs),
	})
	m.Obs.Engine = spec.Engine
}

// Energy model parameters (arbitrary consistent units, following the
// activate/transfer/static decomposition of [16]): the evaluation only
// consumes energy ratios.
const (
	eActivate = 8.0  // per row activation
	eTransfer = 3.0  // per block read or written
	pStatic   = 0.05 // per cycle (refresh + background)
)

// Energy computes memory-system energy for a run.
func Energy(st dram.Stats, cycles int64) float64 {
	return eActivate*float64(st.Activates) +
		eTransfer*float64(st.Reads+st.Writes) +
		pStatic*float64(cycles)
}
