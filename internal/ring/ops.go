package ring

import (
	"shadowblock/internal/block"
	"shadowblock/internal/dram"
	"shadowblock/internal/oram"
)

// Request serves one LLC miss presented at cycle now through the shared
// request driver (oram.Shared.Serve), whose read step is read.
func (c *Controller) Request(now int64, addr uint32, write bool) oram.Outcome {
	return c.sh.Serve(now, addr, write)
}

// read is Ring's read step (oram.Shared's): the Ring ORAM read of one slot
// per bucket along path(leaf), shadow-aware; viaShadow reports that a
// fresh tree shadow of addr forwarded it. addr NoAddr is a dummy read: a
// random unread dummy per bucket, nothing collected. A real read ends in
// the remap. Ring has no on-chip tree levels and no functional mode, so
// nothing forwards on-chip and a write reads like a read.
func (c *Controller) read(start int64, leaf, addr uint32, _ bool) (forward, end int64, onChip, viaShadow bool) {
	path := c.geo.Path(leaf, c.pathBuf)

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
		c.addrBuf = append(c.addrBuf, c.Layout.SlotAddr(b, s))
	}

	end = c.Port.Read(start, c.ReadOp, path, c.addrBuf, c.doneBuf[:len(c.addrBuf)]) + oram.AESLatency

	c.picksBuf = picks
	for pi, sl := range picks {
		arrival := c.doneBuf[pi] + oram.AESLatency
		if sl.Kind() == block.Real && addr != oram.NoAddr && sl.Addr() == addr {
			c.sh.Collect(sl, nil)
			if forward == 0 {
				forward = arrival
			}
		}
		if sl.Kind() == block.Shadow && addr != oram.NoAddr && sl.Addr() == addr && forward == 0 {
			forward, viaShadow = arrival, true
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
	if addr != oram.NoAddr {
		// addr's shadows on path(leaf) go stale even when the remap drew
		// leaf again: left fresh, they could end up deeper than the real
		// copy's next placement.
		c.sh.Remap(addr)
		c.markStale(addr, leaf)
	}
	return forward, end, false, viaShadow
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
// path(label), the path addr was just read from: the real copy now lives
// in the stash under a fresh label, whichever leaf the remap drew. A
// reshuffle during the read may have rewritten any of these buckets, so
// each slot is tested as it stands now.
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

// evict is Ring ORAM's read-write phase (oram.Shared's eviction step):
// collect the valid contents of path-leaf and rewrite it completely. It
// returns the cycles the read and the write-back end.
func (c *Controller) evict(start int64, leaf uint32) (readEnd, writeEnd int64) {
	path := c.geo.Path(leaf, c.pathBuf)

	// Read every slot of the path.
	c.addrBuf = c.addrBuf[:0]
	for _, b := range path {
		c.addrBuf = c.Layout.AppendSlotAddrs(c.addrBuf, b)
	}
	readEnd = c.Port.Read(start, dram.OpRead, path, c.addrBuf, c.doneBuf[:len(c.addrBuf)]) + oram.AESLatency
	for _, b := range path {
		c.collectBucket(b)
	}

	// Rewrite the path, deepest-first placement plus policy shadows.
	return readEnd, c.writePath(readEnd, leaf, path)
}

// collectBucket moves a bucket's valid blocks into the stash (stale
// shadows are dropped there) and empties it.
func (c *Controller) collectBucket(b int) {
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if sl := c.slots[i]; c.valid.has(i) && sl.Kind() != block.Dummy {
			c.sh.Collect(sl, nil)
		}
		c.slots[i] = 0
		c.valid.remove(i)
	}
	c.dummiesUp[b] = 0
}

// writePath refills the collected path (Algorithm 1, Shared.Fill) in
// Ring's slot order: leaf to root, each bucket from slot 0 up, at most Z
// reals among its Z+S slots. Every slot becomes valid again (fresh
// permutation, re-encrypted).
func (c *Controller) writePath(start int64, leaf uint32, path []int) int64 {
	c.sh.Emit(oram.EvPathWrite, leaf, start)
	c.sh.BeginWrite(leaf)
	for lv := c.geo.L; lv >= 0; lv-- {
		b := path[lv]
		reals := 0
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			c.valid.add(i)
			m, _ := c.sh.Fill(lv, reals < c.shape.Z)
			if m.Kind == block.Real {
				reals++
			}
			c.slots[i] = block.NewSlot(m)
		}
		c.recountBucket(b)
	}
	c.sh.EndWrite()
	// addrBuf still holds every slot of the path, staged by evict's read.
	return c.Port.Write(start, path, c.addrBuf)
}

// reshuffle rewrites one exhausted bucket in place (Ring ORAM's early
// reshuffle): its valid reals stay, in the bucket's first slots, and every
// other slot is refilled with a fresh shadow or dummy. It restages addrBuf
// from empty, so a reshuffle in the middle of read replaces the
// picks staged before it with this bucket's slots (DESIGN.md §7, finding
// 8; the Ring goldens pin it).
func (c *Controller) reshuffle(start int64, b int) int64 {
	c.stats.Reshuffles++
	nslots := c.geo.Z
	c.addrBuf = c.Layout.AppendSlotAddrs(c.addrBuf[:0], b)
	bucket := []int{b}
	readEnd := c.Port.Read(start, dram.OpRead, bucket, c.addrBuf, c.doneBuf[:nslots]) + oram.AESLatency

	reals := c.realsBuf[:0]
	for s := 0; s < nslots; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid.has(i) && c.slots[i].Kind() == block.Real {
			reals = append(reals, c.slots[i])
		}
		c.valid.add(i)
	}
	lv := c.geo.BucketLevel(b)
	leaf := c.bucketLeaf(b)
	c.sh.BeginWrite(leaf)
	for s, sl := range reals {
		c.slots[c.geo.SlotIndex(b, s)] = sl
		c.sh.Keep(sl.Meta(c.sh.Label(sl.Addr())), lv)
	}
	for s := len(reals); s < nslots; s++ {
		m, _ := c.sh.Fill(lv, false)
		c.slots[c.geo.SlotIndex(b, s)] = block.NewSlot(m)
	}
	c.sh.EndWrite()
	c.realsBuf = reals
	c.recountBucket(b)
	return c.Port.Retire(leaf, readEnd, c.Port.Write(readEnd, bucket, c.addrBuf))
}

// bucketLeaf returns the leftmost leaf whose path passes through bucket b.
func (c *Controller) bucketLeaf(b int) uint32 {
	lv := c.geo.BucketLevel(b)
	pos := b - ((1 << uint(lv)) - 1)
	return uint32(pos) << uint(c.geo.L-lv)
}
