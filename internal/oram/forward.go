package oram

import (
	"shadowblock/internal/block"
	"shadowblock/internal/stash"
)

// Forward stage: turn the path read's per-slot DRAM completion cycles into
// block arrivals, move what the access collects into the stash, and
// resolve when (and from which copy) the intended data reaches the LLC.

type readResult struct {
	onChip    bool
	viaShadow bool
	fwdLevel  int
	realLevel int
}

// collectAndForward scans the just-read path: on-chip levels arrive
// immediately, off-chip slots at their DRAM completion plus the decrypt
// latency. Read-only accesses move only the intended block into the stash
// (stale shadows of it are discarded in place); the read-write phase
// (collectAll) collects everything ahead of the path write. The intended
// block forwards at the arrival of its earliest copy — real or shadow —
// which is the RD-Dup payoff the depth accounting measures.
func (c *Controller) collectAndForward(path []int, start, readEnd int64, intended uint32, collectAll bool) (forward, end int64, res readResult) {
	res.realLevel = -1
	z := c.geo.Z
	top := c.cfg.TreetopLevels
	end = readEnd + c.cfg.AESLatency

	for lv, bucket := range path {
		for s := 0; s < z; s++ {
			m := c.store.get(bucket, s)
			if m.IsDummy() {
				continue
			}
			isIntended := intended != NoAddr && m.Addr == intended
			if !collectAll && !isIntended {
				continue // stays valid in the tree
			}
			// Arrival: on-chip levels are immediate; off-chip slots come
			// from the DRAM batch, staged root to leaf from level top.
			arrival := start + 1
			if lv >= top {
				arrival = c.doneBuf[(lv-top)*z+s] + c.cfg.AESLatency
			}
			var payload []byte
			if c.engine != nil {
				payload = c.open(c.store.stage[lv*z+s])
			}
			c.store.clear(bucket, s)
			if m.Kind == block.Real || collectAll {
				// Intended shadows on a read-only access are stale once the
				// block is remapped; they are discarded in place. Everything
				// read by the read-write phase goes to the stash.
				e := stash.Entry{Meta: m, Data: payload}
				if m.Kind == block.Shadow {
					e.Priority = c.policy.ShadowPriority(m.Addr)
				}
				if c.st.Insert(e) == stash.Overflow {
					c.stats.StashOverflows++
				}
			}
			if isIntended {
				if forward == 0 {
					forward = arrival
					res.onChip = lv < top
					res.viaShadow = m.Kind == block.Shadow
					res.fwdLevel = lv
				}
				if m.Kind == block.Real {
					res.realLevel = lv
				}
			}
		}
	}

	if forward == 0 || c.cfg.XOR {
		// Not found before the end (or XOR compression, where the intended
		// block only exists once the whole path has been XOR-ed).
		forward = end
		res.onChip = false
		res.viaShadow = false
	}
	return forward, end, res
}
