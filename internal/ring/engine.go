package ring

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
)

// The Ring controller on the public oram.Engine seam: registry
// construction from an oram.Config, the shared counter vocabulary, and
// observability (latency histograms plus the cycle-attribution ledger,
// with Ring's own stage names). The protocol itself is ops.go.

var _ oram.Engine = (*Controller)(nil)

// EngineName is the registered name of the Ring ORAM engine.
const EngineName = "ring"

// ledgerStages is Ring's attribution vocabulary: a read touches one slot
// per bucket (not a full path), and the eviction is a whole-path rewrite.
var ledgerStages = map[metrics.Stage]string{
	metrics.StagePathRead:   "ring_read",
	metrics.StageEvictDrain: "ring_evict",
}

func init() {
	oram.RegisterEngine(oram.EngineInfo{
		Name:        EngineName,
		Description: "Ring ORAM with shadow-carrying dummy slots (§II-C generality)",
		// Ring composes with the multi-core front end; the pipelined
		// issue, channel-interleaved layout, decoupled writeback
		// scheduler, functional payloads and treetop cache are Path-engine
		// machinery it does not (yet) share.
		Caps: oram.Caps{Cores: true},
		New: func(ocfg oram.Config, policy oram.DupPolicy) (oram.Engine, error) {
			c, err := New(FromORAM(ocfg), policy)
			if err != nil {
				return nil, err // not a typed-nil *Controller in the interface
			}
			return c, nil
		},
		LedgerStages: ledgerStages,
	})
}

// FromORAM derives the Ring configuration corresponding to a Path config:
// the shared axes (geometry, block size, stash, AES latency, timing
// protection, XOR, seed, DRAM) carry over, and the Ring-specific bucket
// shape keeps the classic Z=4/S=6/A=3 parameterisation of Default.
func FromORAM(o oram.Config) Config {
	c := Default()
	c.L = o.L
	c.BlockBytes = o.BlockBytes
	c.StashCapacity = o.StashCapacity
	c.AESLatency = o.AESLatency
	c.TimingProtection = o.TimingProtection
	c.RequestRate = o.RequestRate
	c.XOR = o.XOR
	c.Seed = o.Seed
	c.DRAM = o.DRAM
	return c
}

// Name identifies the engine on the seam.
func (c *Controller) Name() string { return EngineName }

// observe mirrors the Path controller's attribution arithmetic: the
// telescoping legs queue-wait (presentation to serve), ring read
// (serve to forward) and ring evict (forward to completion) sum
// bit-exactly to the end-to-end latency. Ring's posmap is direct, so the
// posmap leg is structurally zero. Ring decides timing before observation
// reads it, so attaching a collector never changes a run.
func (c *Controller) observe(issue int64, out oram.Outcome) {
	mc := c.mc
	mc.ReqForward.Record(out.Forward - issue)
	mc.ReqComplete.Record(out.Done - issue)
	queueWait := out.Start - issue
	ringRead := out.Forward - out.Start
	ringEvict := out.Done - out.Forward
	mc.Ledger.RecordAccess(queueWait, 0, ringRead, ringEvict, out.Done-issue)
	occ := c.st.Snapshot()
	mc.Observe("stash_occupancy", issue, float64(occ.Real+occ.Shadow))
}

// Stats maps Ring's protocol counters onto the shared vocabulary:
// ReadPath phases are ORAM accesses, EvictPath phases are evictions, and
// the shadow/stash counters carry over one-to-one. Ring-only counters
// (reshuffles, stale shadows) live on RingStats.
func (c *Controller) Stats() oram.Stats {
	s := c.stats
	return oram.Stats{
		Requests:         s.Requests,
		StashHits:        s.StashHits,
		ShadowStashHits:  s.ShadowStashHits,
		OnChipHits:       s.StashHits + s.ShadowStashHits,
		ORAMAccesses:     s.Reads,
		DummyAccesses:    s.DummyReads,
		EvictionPhases:   s.Evictions,
		ShadowForwards:   s.ShadowForwards,
		StashOverflows:   s.StashOverflows,
		Anomalies:        s.Anomalies,
		DataAccessCycles: s.DataAccessCycles,
	}
}

// RingStats returns a copy of the protocol's own counters, including the
// ones (reshuffles, stale shadows) the shared vocabulary has no slot for.
func (c *Controller) RingStats() Stats { return c.stats }

// MemLedger exposes the DRAM model's per-channel/per-bank attribution.
func (c *Controller) MemLedger() []dram.ChannelLedger { return c.mem.Ledger() }

// SetMetrics attaches an observability collector (nil detaches) and
// registers Ring's ledger stage vocabulary on it.
func (c *Controller) SetMetrics(mc *metrics.Collector) {
	c.mc = mc
	if mc != nil {
		mc.Ledger.SetStageNames(ledgerStages)
	}
}
