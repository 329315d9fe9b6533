package oram

import (
	"fmt"

	"shadowblock/internal/block"
)

// Census summarises tree occupancy for diagnostics and the ablation
// experiments: per-level counts of real and shadow blocks.
type Census struct {
	RealPerLevel   []int
	ShadowPerLevel []int
	Reals          int
	Shadows        int
}

// Census scans the tree image. O(tree size); not for hot paths.
func (c *Controller) Census() Census {
	cs := Census{
		RealPerLevel:   make([]int, c.geo.Levels()),
		ShadowPerLevel: make([]int, c.geo.Levels()),
	}
	for b := 0; b < c.geo.NumBuckets(); b++ {
		lv := c.geo.BucketLevel(b)
		for s := 0; s < c.geo.Z; s++ {
			switch c.store.get(b, s).Kind {
			case block.Real:
				cs.RealPerLevel[lv]++
				cs.Reals++
			case block.Shadow:
				cs.ShadowPerLevel[lv]++
				cs.Shadows++
			}
		}
	}
	return cs
}

// CheckWritebackInvariants verifies the decoupled writeback scheduler's
// structural guarantees at a quiescent point (between Request calls):
//
//  1. At most one queued op per bucket — any read of a bucket, including
//     the path read of the eviction that would refill it, force-retires
//     the bucket's pending write first, so a second op can never form
//     behind an unretired one.
//  2. No queued op has outlived the wbMaxDefer starvation bound: ops at
//     the bound retire at the next path read, and every eviction phase
//     begins with one, so at rest every op's age is strictly below it.
//  3. Each op covers exactly one off-chip bucket (Z slot addresses on a
//     level at or below the treetop boundary).
//  4. The retirement accounting closes: enqueued = slotted + forced +
//     flushed + still pending.
//
// Nil when the scheduler is off. O(queue length); for tests, not the hot
// path.
func (c *Controller) CheckWritebackInvariants() error {
	if c.wb == nil {
		if c.cfg.WBDecoupled {
			return fmt.Errorf("writeback: WBDecoupled set but scheduler state missing")
		}
		return nil
	}
	seen := make(map[int32]bool, len(c.wb.ops))
	for i := range c.wb.ops {
		op := &c.wb.ops[i]
		if seen[op.bucket] {
			return fmt.Errorf("writeback: bucket %d has two queued ops", op.bucket)
		}
		seen[op.bucket] = true
		if age := c.evictCount - op.seq; age >= wbMaxDefer {
			return fmt.Errorf("writeback: bucket %d deferred %d eviction phases (bound %d)",
				op.bucket, age, wbMaxDefer)
		}
		if int(op.n) != c.geo.Z {
			return fmt.Errorf("writeback: bucket %d op has %d slots, want Z=%d", op.bucket, op.n, c.geo.Z)
		}
		if lv := c.geo.BucketLevel(int(op.bucket)); lv < c.cfg.TreetopLevels {
			return fmt.Errorf("writeback: bucket %d at on-chip level %d has a queued DRAM write", op.bucket, lv)
		}
	}
	retired := c.stats.WBSlotted + c.stats.WBForced + c.stats.WBFlushed
	if c.stats.WBEnqueued != retired+uint64(len(c.wb.ops)) {
		return fmt.Errorf("writeback: %d enqueued != %d retired + %d pending",
			c.stats.WBEnqueued, retired, len(c.wb.ops))
	}
	return nil
}

// CheckInvariants runs the shared structural walker under its strict rules:
// every slot of the image is live, the PLB's blocks count as parked real
// copies, and no stale shadow is tolerated anywhere.
func (c *Controller) CheckInvariants() error {
	return c.sh.CheckTree(c.store.slots, nil, c.plbBlocks, false)
}
