package ring

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/dram"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
)

// Request serves one LLC miss presented at cycle now: the shared request
// head (stash-hit service, constant-rate clock), then Ring's own read.
func (c *Controller) Request(now int64, addr uint32, write bool) oram.Outcome {
	if int(addr) >= c.cfg.NumDataBlocks() {
		panic(fmt.Sprintf("ring: address %d outside the data space", addr))
	}
	out, _, served := c.sh.Begin(now, addr, write)
	if !served {
		start := c.sh.Align(now)
		forward, end := c.readPath(start, addr)
		out = oram.Outcome{Start: start, Forward: forward, Done: end}
		c.stats.DataAccessCycles += end - start
		c.sh.Retire(out)
	}
	if c.mc != nil {
		// Ring's posmap is direct, so the posmap leg is structurally zero.
		oram.RecordRequest(c.mc, now, out, 0)
		occ := c.st.Snapshot()
		c.mc.Observe("stash_occupancy", now, float64(occ.Real+occ.Shadow))
	}
	return out
}

// issueDummy is the shared clock's dummy step: a random unread dummy per
// bucket along a random path, nothing collected.
func (c *Controller) issueDummy(start int64) {
	_, c.sh.Busy = c.readPathAt(start, oram.NoAddr, uint32(c.dummyRNG.Uint64n(uint64(c.geo.NumLeaves()))))
}

// readPath performs the Ring ORAM read for addr: one slot per bucket along
// path(label), shadow-aware, then remap; every A reads an EvictPath.
func (c *Controller) readPath(start int64, addr uint32) (forward, end int64) {
	label := c.pos.Label(addr)
	forward, end = c.readPathAt(start, addr, label)

	c.sh.Remap(addr)

	c.readCount++
	if c.readCount%uint64(c.shape.A) == 0 {
		end = c.evictPath(end)
	}
	c.sh.Busy = end
	return forward, end
}

// readPathAt reads one slot per bucket along path(label). addr==NoAddr is a
// dummy request: a random unread dummy per bucket, nothing collected.
func (c *Controller) readPathAt(start int64, addr, label uint32) (forward, end int64) {
	if c.observer != nil {
		c.observer(oram.Event{Kind: oram.EvPathRead, Leaf: label, Start: start})
	}
	c.stats.ORAMAccesses++
	path := c.geo.Path(label, c.pathBuf)

	picks := c.picksBuf[:0]
	c.addrBuf = c.addrBuf[:0]
	for _, b := range path {
		s, m := c.pickSlot(b, addr)
		if s < 0 {
			// No valid slot left (all consumed): reshuffle immediately,
			// then pick again.
			start = c.reshuffle(start, b)
			s, m = c.pickSlot(b, addr)
			if s < 0 {
				c.stats.Anomalies++
				continue
			}
		}
		i := c.geo.SlotIndex(b, s)
		c.valid[i] = false
		if m.Kind == block.Real {
			c.slots[i] = 0 // the real block moves to the stash
		} else {
			c.dummiesUp[b]--
		}
		picks = append(picks, m)
		c.addrBuf = append(c.addrBuf, c.layout.SlotAddr(b, s))
	}

	end = start + 1
	if len(c.addrBuf) > 0 {
		end = c.mem.ReserveBatch(start, c.readOp, c.addrBuf, c.doneBuf[:len(c.addrBuf)])
	}
	end += c.cfg.AESLatency

	c.picksBuf = picks
	for pi, m := range picks {
		arrival := c.doneBuf[pi] + c.cfg.AESLatency
		if m.Kind == block.Real && addr != oram.NoAddr && m.Addr == addr {
			if c.st.Insert(stash.Entry{Meta: m}) == stash.Overflow {
				c.stats.StashOverflows++
			}
			if forward == 0 {
				forward = arrival
			}
		}
		if m.Kind == block.Shadow && addr != oram.NoAddr && m.Addr == addr && forward == 0 {
			forward = arrival
			c.stats.ShadowForwards++
		}
	}

	// Exhausted buckets reshuffle after the read completes.
	for _, b := range path {
		if c.dummiesUp[b] == 0 {
			end = c.reshuffle(end, b)
		}
	}
	if forward == 0 || c.cfg.XOR {
		forward = end
	}
	return forward, end
}

// pickSlot chooses the slot to read in bucket b: the intended block's real
// slot if resident, else a fresh shadow of the intended block, else a
// random valid dummy-class slot. Returns -1 when nothing valid remains.
func (c *Controller) pickSlot(b int, addr uint32) (int, block.Meta) {
	nslots := c.geo.Z
	var dummySlots [16]int
	nd := 0
	shadowSlot := -1
	var shadowMeta block.Meta
	for s := 0; s < nslots; s++ {
		i := c.geo.SlotIndex(b, s)
		if !c.valid[i] {
			continue
		}
		m := block.Unpack(c.slots[i])
		if addr != oram.NoAddr && m.Addr == addr && m.Kind == block.Real {
			return s, m
		}
		if m.Kind != block.Real {
			if addr != oram.NoAddr && m.Kind == block.Shadow && m.Addr == addr {
				if m.Label == c.pos.Label(addr) {
					// A fresh shadow of the intended block: read it instead
					// of a random dummy (indistinguishable, arrives
					// earlier).
					shadowSlot, shadowMeta = s, m
				}
				// A stale shadow of the intended block never serves, not
				// even as a random dummy — its data predates a remap.
				continue
			}
			dummySlots[nd] = s
			nd++
		}
	}
	if shadowSlot >= 0 {
		return shadowSlot, shadowMeta
	}
	if nd == 0 {
		return -1, block.Meta{}
	}
	s := dummySlots[c.slotRNG.Intn(nd)]
	return s, block.Unpack(c.slots[c.geo.SlotIndex(b, s)])
}

// evictPath is Ring ORAM's read-write phase: collect the valid contents of
// the next reverse-lexicographic path and rewrite it completely.
func (c *Controller) evictPath(start int64) int64 {
	leaf := c.geo.ReverseLexLeaf(c.evictCount)
	c.evictCount++
	c.stats.EvictionPhases++
	path := c.geo.Path(leaf, c.pathBuf)

	// Read every slot of the path.
	c.addrBuf = c.addrBuf[:0]
	for _, b := range path {
		for s := 0; s < c.geo.Z; s++ {
			c.addrBuf = append(c.addrBuf, c.layout.SlotAddr(b, s))
		}
	}
	end := c.mem.ReserveBatch(start, dram.OpRead, c.addrBuf, c.doneBuf[:len(c.addrBuf)]) + c.cfg.AESLatency
	for _, b := range path {
		c.collectBucket(b)
	}

	// Rewrite the path, deepest-first placement plus policy shadows.
	end = c.writePath(end, leaf, path)
	return end
}

// collectBucket moves a bucket's valid real blocks (and fresh shadows) into
// the stash and empties it.
func (c *Controller) collectBucket(b int) {
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid[i] {
			m := block.Unpack(c.slots[i])
			switch m.Kind {
			case block.Real:
				e := stash.Entry{Meta: m}
				if c.st.Insert(e) == stash.Overflow {
					c.stats.StashOverflows++
				}
			case block.Shadow:
				if m.Label == c.pos.Label(m.Addr) {
					e := stash.Entry{Meta: m, Priority: c.policy.ShadowPriority(m.Addr)}
					c.st.Insert(e)
				} else {
					c.stats.StaleShadows++
				}
			}
		}
		c.slots[i] = 0
		c.valid[i] = false
	}
	c.dummiesUp[b] = 0
}

// writePath refills the collected path: up to Z reals per bucket as deep as
// their labels allow, remaining slots to the duplication policy or plain
// dummies. Every slot becomes valid again (fresh permutation, re-encrypted).
func (c *Controller) writePath(start int64, leaf uint32, path []int) int64 {
	if c.observer != nil {
		c.observer(oram.Event{Kind: oram.EvPathWrite, Leaf: leaf, Start: start})
	}
	c.policy.BeginPathWrite(leaf)
	pools := c.poolsBuf
	oram.FillEvictPools(pools, c.geo, c.st, leaf)

	for lv := c.geo.L; lv >= 0; lv-- {
		b := path[lv]
		placedReals := 0
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			c.valid[i] = true
			if placedReals < c.shape.Z {
				if addr, ok := oram.PopDeepest(pools, lv); ok {
					e, ok2 := c.st.Take(addr)
					if !ok2 {
						c.stats.Anomalies++
						c.slots[i] = 0
						continue
					}
					c.slots[i] = e.Meta.Pack()
					placedReals++
					c.policy.NoteEvict(e.Meta, lv)
					continue
				}
			}
			if m, ok := c.policy.SelectDup(leaf, lv); ok {
				c.slots[i] = m.Pack()
				c.policy.NoteEvict(m, lv)
				continue
			}
			c.slots[i] = 0
		}
		c.recountBucket(b)
	}
	c.policy.EndPathWrite()
	// addrBuf still holds every slot of the path, staged by evictPath's read.
	return c.mem.ReserveBatch(start, dram.OpWrite, c.addrBuf, nil)
}

// reshuffle rewrites one exhausted bucket in place (Ring ORAM's early
// reshuffle): its valid contents are collected and written back together
// with fresh dummies/shadows.
func (c *Controller) reshuffle(start int64, b int) int64 {
	c.stats.Reshuffles++
	nslots := c.geo.Z
	c.addrBuf = c.addrBuf[:0]
	for s := 0; s < nslots; s++ {
		c.addrBuf = append(c.addrBuf, c.layout.SlotAddr(b, s))
	}
	end := c.mem.ReserveBatch(start, dram.OpRead, c.addrBuf, c.doneBuf[:nslots]) + c.cfg.AESLatency

	// Collect, then re-place the same bucket's reals locally.
	reals := c.realsBuf[:0]
	for s := 0; s < nslots; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid[i] {
			m := block.Unpack(c.slots[i])
			if m.Kind == block.Real {
				reals = append(reals, m)
			}
			// Shadows and dummies are simply regenerated.
		}
		c.slots[i] = 0
		c.valid[i] = true
	}
	lv := c.geo.BucketLevel(b)
	leaf := c.bucketLeaf(b)
	c.policy.BeginPathWrite(leaf)
	for si, m := range reals {
		c.slots[c.geo.SlotIndex(b, si)] = m.Pack()
		c.policy.NoteEvict(m, lv)
	}
	for s := len(reals); s < nslots; s++ {
		if m, ok := c.policy.SelectDup(leaf, lv); ok {
			c.slots[c.geo.SlotIndex(b, s)] = m.Pack()
			c.policy.NoteEvict(m, lv)
		}
	}
	c.policy.EndPathWrite()
	c.realsBuf = reals
	c.recountBucket(b)
	return c.mem.ReserveBatch(end, dram.OpWrite, c.addrBuf, nil)
}

// bucketLeaf returns the leftmost leaf whose path passes through bucket b.
func (c *Controller) bucketLeaf(b int) uint32 {
	lv := c.geo.BucketLevel(b)
	pos := b - ((1 << uint(lv)) - 1)
	return uint32(pos) << uint(c.geo.L-lv)
}
