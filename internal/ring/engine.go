package ring

import "shadowblock/internal/oram"

// The Ring controller on the public oram.Engine seam: registry
// construction from an oram.Config and the invariant walker; the embedded
// oram.Shared answers the rest of the seam, metrics included, so a Ring
// ledger reports under the same stage keys as a Path one. The protocol
// itself is ops.go; its batches reach DRAM through Shared's memory port,
// so every memory-system axis (-cN, -wbd) composes with Ring as it does
// with Path.

var _ oram.Engine = (*Controller)(nil)

// EngineName is the registered name of the Ring ORAM engine.
const EngineName = "ring"

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

// CheckInvariants runs the shared structural walker over the slots still
// valid. Reading one slot per bucket would leave a remapped block's old
// shadows on its old path; read turns them into dummies, so the walker's
// rule-1 holds for every valid slot.
func (c *Controller) CheckInvariants() error {
	return c.CheckTree(c.slots, c.valid.has)
}
