package ring

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/stash"
)

// CheckInvariants verifies the Ring controller's structural guarantees:
// exactly one real copy of every block on the path of its current label (or
// in the stash), and every *fresh* shadow (label matching the position map)
// strictly above its real block on that same path. Stale shadows — left
// behind when a block was remapped — are permitted in the tree but must
// never be selected for their address (pickSlot checks freshness).
func (c *Controller) CheckInvariants() error {
	n := c.cfg.NumDataBlocks()
	type loc struct {
		count  int
		inTree bool
		level  int
		label  uint32
	}
	reals := make(map[uint32]*loc, n)
	type shloc struct {
		level int
		label uint32
	}
	fresh := make(map[uint32][]shloc)

	for b := 0; b < c.geo.NumBuckets(); b++ {
		lv := c.geo.BucketLevel(b)
		for s := 0; s < c.cfg.Z+c.cfg.S; s++ {
			i := c.geo.SlotIndex(b, s)
			if !c.valid[i] {
				continue
			}
			m := block.Unpack(c.slots[i])
			switch m.Kind {
			case block.Real:
				if c.geo.BucketAt(m.Label, lv) != b {
					return fmt.Errorf("ring: real %v off its path at bucket %d", m, b)
				}
				if c.pos.Label(m.Addr) != m.Label {
					return fmt.Errorf("ring: real %v label mismatch (posmap %d)", m, c.pos.Label(m.Addr))
				}
				r := reals[m.Addr]
				if r == nil {
					r = &loc{}
					reals[m.Addr] = r
				}
				r.count++
				r.inTree = true
				r.level = lv
				r.label = m.Label
			case block.Shadow:
				if m.Label != c.pos.Label(m.Addr) {
					continue // stale: tolerated until its bucket rewrites
				}
				if c.geo.BucketAt(m.Label, lv) != b {
					return fmt.Errorf("ring: fresh shadow %v off its path at bucket %d", m, b)
				}
				fresh[m.Addr] = append(fresh[m.Addr], shloc{lv, m.Label})
			}
		}
	}

	var stErr error
	c.st.ForEach(func(e stash.Entry) {
		if stErr != nil {
			return
		}
		switch e.Meta.Kind {
		case block.Real:
			r := reals[e.Meta.Addr]
			if r == nil {
				r = &loc{}
				reals[e.Meta.Addr] = r
			}
			r.count++
			r.label = e.Meta.Label
		case block.Shadow:
			if e.Meta.Label != c.pos.Label(e.Meta.Addr) {
				stErr = fmt.Errorf("ring: stale shadow of %d resident in the stash", e.Meta.Addr)
			}
		}
	})
	if stErr != nil {
		return stErr
	}

	for a := 0; a < n; a++ {
		addr := uint32(a)
		r := reals[addr]
		if r == nil || r.count == 0 {
			if c.stats.StashOverflows > 0 || c.stats.Anomalies > 0 {
				continue
			}
			return fmt.Errorf("ring: block %d has no real copy", addr)
		}
		if r.count > 1 {
			return fmt.Errorf("ring: block %d has %d real copies", addr, r.count)
		}
		for _, sh := range fresh[addr] {
			if !r.inTree {
				return fmt.Errorf("ring: fresh shadow of %d while its real copy is in the stash", addr)
			}
			if sh.level >= r.level {
				return fmt.Errorf("ring: fresh shadow of %d at level %d, real at %d", addr, sh.level, r.level)
			}
		}
	}
	return nil
}
