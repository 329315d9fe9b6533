package ring

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
)

// The Ring controller on the public oram.Engine seam: registry
// construction from an oram.Config, the invariant walker, and Ring's own
// ledger stage names. The protocol itself is ops.go.

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
		New: func(cfg oram.Config, policy oram.DupPolicy) (oram.Engine, error) {
			c, err := New(cfg, Classic, policy)
			if err != nil {
				return nil, err // not a typed-nil *Controller in the interface
			}
			return c, nil
		},
		LedgerStages: ledgerStages,
	})
}

// Name identifies the engine on the seam.
func (c *Controller) Name() string { return EngineName }

// Stats returns the counters, kept in the shared vocabulary: ReadPath
// phases are ORAM accesses, EvictPath phases are eviction phases.
func (c *Controller) Stats() oram.Stats { return c.stats }

// CheckInvariants runs the shared structural walker over the slots still
// valid. Reading one slot per bucket leaves a remapped block's old shadows
// in the tree until their buckets are rewritten, so those — and only those —
// are tolerated; pickSlot never serves them.
func (c *Controller) CheckInvariants() error {
	return c.sh.CheckTree(c.slots, c.valid, nil, true)
}

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
