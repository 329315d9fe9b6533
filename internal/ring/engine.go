package ring

import (
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
)

// The Ring controller on the public oram.Engine seam: registry
// construction from an oram.Config, the invariant walker, and Ring's own
// ledger stage names. The protocol itself is ops.go; its batches reach
// DRAM through the embedded oram.Port, so every memory-system axis (-pipe,
// -cN, -wbd) composes with Ring as it does with Path.

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
		Name: EngineName,
		New: func(cfg oram.Config, policy oram.DupPolicy) (oram.Engine, error) {
			c, err := New(cfg, Classic, policy)
			if err != nil {
				return nil, err // not a typed-nil *Controller in the interface
			}
			return c, nil
		},
	})
}

// Name identifies the engine on the seam.
func (c *Controller) Name() string { return EngineName }

// Stats returns the counters, kept in the shared vocabulary: every path
// read, an eviction's included, is an ORAM access, and every EvictPath is
// an eviction phase.
func (c *Controller) Stats() oram.Stats { return c.stats }

// CheckInvariants runs the shared structural walker over the slots still
// valid. Reading one slot per bucket leaves a remapped block's old shadows
// in the tree until their buckets are rewritten; read tags those
// stale, the walker skips them, and pickSlot never serves them.
func (c *Controller) CheckInvariants() error {
	return c.sh.CheckTree(c.slots, c.valid.has)
}

// SetMetrics attaches an observability collector (nil detaches) and
// registers Ring's ledger stage vocabulary on it.
func (c *Controller) SetMetrics(mc *metrics.Collector) {
	c.Port.SetMetrics(mc)
	if mc != nil {
		mc.Ledger.SetStageNames(ledgerStages)
	}
}
