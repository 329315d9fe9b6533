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
	if c.pos.Label(addr) != label {
		c.markStale(addr, label)
	}

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
		s, sl := c.pickSlot(b, addr)
		if s < 0 {
			// No valid slot left (all consumed): reshuffle immediately,
			// then pick again.
			start = c.reshuffle(start, b)
			s, sl = c.pickSlot(b, addr)
			if s < 0 {
				c.stats.Anomalies++
				continue
			}
		}
		i := c.geo.SlotIndex(b, s)
		c.valid.remove(i)
		if sl.Kind() == block.Real {
			c.slots[i] = 0 // the real block moves to the stash
		} else {
			c.dummiesUp[b]--
		}
		picks = append(picks, sl)
		c.addrBuf = append(c.addrBuf, c.layout.SlotAddr(b, s))
	}

	end = start + 1
	if len(c.addrBuf) > 0 {
		end = c.mem.ReserveBatch(start, c.readOp, c.addrBuf, c.doneBuf[:len(c.addrBuf)])
	}
	end += c.cfg.AESLatency

	c.picksBuf = picks
	for pi, sl := range picks {
		arrival := c.doneBuf[pi] + c.cfg.AESLatency
		if sl.Kind() == block.Real && addr != oram.NoAddr && sl.Addr() == addr {
			// The real copy lies on path(label): label is its own.
			if c.st.Insert(stash.Entry{Meta: sl.Meta(label)}) == stash.Overflow {
				c.stats.StashOverflows++
			}
			if forward == 0 {
				forward = arrival
			}
		}
		if sl.Kind() == block.Shadow && addr != oram.NoAddr && sl.Addr() == addr && forward == 0 {
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
func (c *Controller) pickSlot(b int, addr uint32) (int, block.Slot) {
	nslots := c.geo.Z
	var dummySlots [16]int
	nd := 0
	shadowSlot := -1
	for s := 0; s < nslots; s++ {
		i := c.geo.SlotIndex(b, s)
		if !c.valid.has(i) {
			continue
		}
		sl := c.slots[i]
		if addr != oram.NoAddr && sl.Addr() == addr && sl.Kind() == block.Real {
			return s, sl
		}
		if sl.Kind() != block.Real {
			if addr != oram.NoAddr && sl.Kind() == block.Shadow && sl.Addr() == addr {
				if !sl.Stale() {
					// A fresh shadow of the intended block: read it instead
					// of a random dummy (indistinguishable, arrives
					// earlier).
					shadowSlot = s
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
		return shadowSlot, c.slots[c.geo.SlotIndex(b, shadowSlot)]
	}
	if nd == 0 {
		return -1, 0
	}
	s := dummySlots[c.slotRNG.Intn(nd)]
	return s, c.slots[c.geo.SlotIndex(b, s)]
}

// markStale retags as stale every still-valid shadow of addr on
// path(label), the path addr was just read from and remapped off: their
// label is no longer the position map's. A reshuffle during the read may
// have rewritten any of these buckets, so each slot is tested as it
// stands now.
func (c *Controller) markStale(addr, label uint32) {
	for _, b := range c.geo.Path(label, c.pathBuf) {
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			if c.valid.has(i) && c.slots[i].FreshShadowOf(addr) {
				c.slots[i] = c.slots[i].MarkStale()
			}
		}
	}
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
		c.addrBuf = c.layout.AppendSlotAddrs(c.addrBuf, b)
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
// the stash, labelled from the position map, and empties it.
func (c *Controller) collectBucket(b int) {
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if sl := c.slots[i]; c.valid.has(i) {
			switch {
			case sl.Kind() == block.Real:
				e := stash.Entry{Meta: sl.Meta(c.pos.Label(sl.Addr()))}
				if c.st.Insert(e) == stash.Overflow {
					c.stats.StashOverflows++
				}
			case sl.Stale():
				c.stats.StaleShadows++
			case sl.Kind() == block.Shadow:
				e := stash.Entry{Meta: sl.Meta(c.pos.Label(sl.Addr())), Priority: c.policy.ShadowPriority(sl.Addr())}
				c.st.Insert(e)
			}
		}
		c.slots[i] = 0
		c.valid.remove(i)
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
			c.valid.add(i)
			if placedReals < c.shape.Z {
				if addr, ok := oram.PopDeepest(pools, lv); ok {
					e, ok2 := c.st.Take(addr)
					if !ok2 {
						c.stats.Anomalies++
						c.slots[i] = 0
						continue
					}
					c.slots[i] = block.NewSlot(e.Meta)
					placedReals++
					c.policy.NoteEvict(e.Meta, lv)
					continue
				}
			}
			if m, ok := c.policy.SelectDup(leaf, lv); ok {
				c.slots[i] = block.NewSlot(m)
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
	c.addrBuf = c.layout.AppendSlotAddrs(c.addrBuf[:0], b)
	end := c.mem.ReserveBatch(start, dram.OpRead, c.addrBuf, c.doneBuf[:nslots]) + c.cfg.AESLatency

	// Collect, then re-place the same bucket's reals locally.
	reals := c.realsBuf[:0]
	for s := 0; s < nslots; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid.has(i) && c.slots[i].Kind() == block.Real {
			reals = append(reals, c.slots[i])
		}
		// Shadows and dummies are simply regenerated.
		c.slots[i] = 0
		c.valid.add(i)
	}
	lv := c.geo.BucketLevel(b)
	leaf := c.bucketLeaf(b)
	c.policy.BeginPathWrite(leaf)
	for si, sl := range reals {
		c.slots[c.geo.SlotIndex(b, si)] = sl
		c.policy.NoteEvict(sl.Meta(c.pos.Label(sl.Addr())), lv)
	}
	for s := len(reals); s < nslots; s++ {
		if m, ok := c.policy.SelectDup(leaf, lv); ok {
			c.slots[c.geo.SlotIndex(b, s)] = block.NewSlot(m)
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
