package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/stash"
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

// CheckInvariants walks the whole tree and stash and verifies the
// structural guarantees the security argument rests on (DESIGN.md §3):
//
//  1. Every non-dummy tree slot lies on the path of its label (the Path
//     ORAM invariant, the paper's Rule-1).
//  2. Exactly one real copy of every unified-space block exists, in the
//     stash or on the path of its current position-map label.
//  3. Every shadow has the same label as its real block; if the real block
//     is in the tree, all tree shadows sit strictly above it (Rule-2) and
//     record its level as SrcLevel; if the real block is in the stash, no
//     shadows exist anywhere.
//  4. The stash never holds two entries for one address (merge rules).
//
// It is O(tree size) and meant for tests, not the simulation hot path.
func (c *Controller) CheckInvariants() error {
	type realLoc struct {
		inTree bool
		level  int
		label  uint32
		count  int
	}
	total := c.pos.Hierarchy().TotalBlocks()
	reals := make(map[uint32]*realLoc, total)
	type shadowLoc struct {
		inTree   bool
		level    int
		label    uint32
		srcLevel int
	}
	shadows := make(map[uint32][]shadowLoc)

	for b := 0; b < c.geo.NumBuckets(); b++ {
		lv := c.geo.BucketLevel(b)
		for s := 0; s < c.geo.Z; s++ {
			m := c.store.get(b, s)
			if m.IsDummy() {
				continue
			}
			if c.geo.BucketAt(m.Label, lv) != b {
				return fmt.Errorf("rule-1: %v at bucket %d level %d is off its path", m, b, lv)
			}
			switch m.Kind {
			case block.Real:
				r := reals[m.Addr]
				if r == nil {
					r = &realLoc{}
					reals[m.Addr] = r
				}
				r.count++
				r.inTree = true
				r.level = lv
				r.label = m.Label
			case block.Shadow:
				shadows[m.Addr] = append(shadows[m.Addr], shadowLoc{
					inTree: true, level: lv, label: m.Label, srcLevel: int(m.SrcLevel),
				})
			}
		}
	}

	for addr, m := range c.plbBlocks {
		r := reals[addr]
		if r == nil {
			r = &realLoc{}
			reals[addr] = r
		}
		r.count++
		r.label = m.Label
	}

	seen := make(map[uint32]bool)
	var stashErr error
	c.st.ForEach(func(e stash.Entry) {
		if stashErr != nil {
			return
		}
		if seen[e.Meta.Addr] {
			stashErr = fmt.Errorf("stash holds two entries for address %d", e.Meta.Addr)
			return
		}
		seen[e.Meta.Addr] = true
		switch e.Meta.Kind {
		case block.Real:
			r := reals[e.Meta.Addr]
			if r == nil {
				r = &realLoc{}
				reals[e.Meta.Addr] = r
			}
			r.count++
			r.label = e.Meta.Label
		case block.Shadow:
			shadows[e.Meta.Addr] = append(shadows[e.Meta.Addr], shadowLoc{
				inTree: false, label: e.Meta.Label, srcLevel: int(e.Meta.SrcLevel),
			})
		}
	})
	if stashErr != nil {
		return stashErr
	}

	for a := 0; a < total; a++ {
		addr := uint32(a)
		r, ok := reals[addr]
		if !ok || r.count == 0 {
			if c.stats.Anomalies > 0 || c.stats.StashOverflows > 0 {
				continue // a recorded overflow explains the loss
			}
			return fmt.Errorf("block %d has no real copy", addr)
		}
		if r.count > 1 {
			return fmt.Errorf("block %d has %d real copies", addr, r.count)
		}
		if got := c.pos.Label(addr); got != r.label {
			return fmt.Errorf("block %d labelled %d in posmap but %d in storage", addr, got, r.label)
		}
		for _, sh := range shadows[addr] {
			if sh.label != r.label {
				return fmt.Errorf("shadow of %d labelled %d, real labelled %d", addr, sh.label, r.label)
			}
			if !r.inTree {
				return fmt.Errorf("shadow of %d exists while its real copy is in the stash", addr)
			}
			if sh.inTree {
				if sh.level >= r.level {
					return fmt.Errorf("rule-2: shadow of %d at level %d, real at level %d", addr, sh.level, r.level)
				}
				if sh.srcLevel != r.level {
					return fmt.Errorf("shadow of %d records SrcLevel %d, real at level %d", addr, sh.srcLevel, r.level)
				}
			} else if sh.srcLevel != r.level {
				return fmt.Errorf("stash shadow of %d records SrcLevel %d, real at level %d", addr, sh.srcLevel, r.level)
			}
		}
	}
	return nil
}
