package oram

import "shadowblock/internal/block"

// Forward stage: turn the path read's per-slot DRAM completion cycles into
// block arrivals, move what the access collects into the stash, and
// resolve when (and from which copy) the intended data reaches the LLC.

type readResult struct {
	onChip    bool
	viaShadow bool
	fwdLevel  int
	realLevel int
}

// collectAndForward scans the just-read path, reading each bucket from
// the backend in functional mode: on-chip levels arrive immediately,
// off-chip slots at their DRAM completion plus the decrypt latency.
// Read-only accesses move only the intended block into the stash (stale
// shadows of it are discarded in place); the read-write phase
// (collectAll) collects everything ahead of the path write. The intended
// block forwards at the arrival of its earliest copy — real or shadow —
// which is the RD-Dup payoff the depth accounting measures.
func (c *Controller) collectAndForward(path []int, start, readEnd int64, intended uint32, collectAll, write bool) (forward, end int64, res readResult) {
	res.realLevel = -1
	z := c.geo.Z
	end = readEnd + AESLatency

	for lv, bucket := range path {
		cts := c.store.readBucket(bucket)
		onChip := c.OnChip(bucket)
		for s := 0; s < z; s++ {
			sl := c.store.get(bucket, s)
			kind := sl.Kind()
			if kind == block.Dummy {
				continue
			}
			isIntended := intended != NoAddr && sl.Addr() == intended
			if !collectAll && !isIntended {
				continue // stays valid in the tree
			}
			// Arrival: on-chip levels are immediate; off-chip slots come
			// from the DRAM batch, staged root to leaf.
			arrival := start + 1
			if !onChip {
				arrival = c.doneBuf[lv*z+s] + AESLatency
			}
			c.store.clear(bucket, s)
			// What the access collects is what it opens.
			switch {
			case collectAll:
				// Everything goes to the stash: every real opened, every
				// shadow kept sealed.
				c.sh.Collect(sl, c.store.payload(cts, bucket, s, kind == block.Real))
			case kind == block.Shadow:
				// Stale once the intended block is remapped: discarded in
				// place, never opened.
			case write:
				// The written payload replaces the block's.
				c.sh.Collect(sl, nil)
			default:
				c.sh.Collect(sl, c.store.payload(cts, bucket, s, true))
			}
			if isIntended {
				if forward == 0 {
					forward = arrival
					res.onChip = onChip
					res.viaShadow = kind == block.Shadow
					res.fwdLevel = lv
				}
				if kind == block.Real {
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
