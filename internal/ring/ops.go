package ring

import (
	"shadowblock/internal/block"
	"shadowblock/internal/dram"
	"shadowblock/internal/oram"
)

// read is Ring's read step (oram.Shared's): the Ring ORAM read of one slot
// per bucket along path(leaf), shadow-aware; viaShadow reports that a tree
// shadow of addr forwarded it. addr NoAddr is a dummy read: a random
// unread dummy per bucket, nothing collected. A real read ends in the
// remap. Ring has no on-chip tree levels and no functional mode, so
// nothing forwards on-chip and a write reads like a read.
func (c *Controller) read(start int64, leaf, addr uint32, _ bool) (forward, end int64, onChip, viaShadow bool) {
	path := c.geo.Path(leaf, c.pathBuf)

	picks := c.picksBuf[:0]
	c.addrBuf = c.addrBuf[:0]
	for _, b := range path {
		s, sl := c.pickSlot(b, addr)
		i := c.geo.SlotIndex(b, s)
		c.valid.remove(i)
		if sl.Kind() == block.Real {
			c.slots[i] = 0 // the real block moves to the stash
		}
		c.readsLeft[b]--
		picks = append(picks, sl)
		c.addrBuf = append(c.addrBuf, c.Layout.SlotAddr(b, s))
	}

	end = c.Read(start, c.ReadOp, path, c.addrBuf, c.doneBuf[:len(c.addrBuf)]) + oram.AESLatency

	c.picksBuf = picks
	for pi, sl := range picks {
		arrival := c.doneBuf[pi] + oram.AESLatency
		if sl.Kind() == block.Real && addr != oram.NoAddr && sl.Addr() == addr {
			c.Collect(sl, nil)
			if forward == 0 {
				forward = arrival
			}
		}
		if sl.Kind() == block.Shadow && addr != oram.NoAddr && sl.Addr() == addr && forward == 0 {
			forward, viaShadow = arrival, true
		}
	}

	// A bucket read S times since its last write reshuffles after the
	// read: the schedule depends on the leaf sequence alone.
	for _, b := range path {
		if c.readsLeft[b] == 0 {
			end = c.reshuffle(end, b)
		}
	}
	if forward == 0 || c.xor {
		forward, viaShadow = end, false // under XOR nothing forwards before the path's end
	}
	if addr != oram.NoAddr {
		// addr's shadows on path(leaf) become dummies even when the remap
		// drew leaf again: left in place, they could end up deeper than
		// the real copy's next placement (DESIGN.md §7, finding 10).
		c.Remap(addr)
		c.dropShadows(addr, leaf)
	}
	return forward, end, false, viaShadow
}

// pickSlot chooses the slot to read in bucket b: the intended block's real
// slot if resident, else a shadow of the intended block, else a random
// valid non-real slot. One always remains: a bucket write leaves at least
// S non-real slots, each read takes at most one, and a bucket reshuffles
// after its S-th read.
func (c *Controller) pickSlot(b int, addr uint32) (int, block.Slot) {
	var dummySlots [16]int
	nd := 0
	shadowSlot := -1
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if !c.valid.has(i) {
			continue
		}
		// NoAddr lies outside the slot address space, so a dummy read
		// matches neither of the first two cases.
		switch sl := c.slots[i]; {
		case sl.Addr() == addr && sl.Kind() == block.Real:
			return s, sl
		case sl.Addr() == addr && sl.Kind() == block.Shadow:
			// A shadow of the intended block: read it instead of a random
			// dummy (indistinguishable, arrives earlier).
			shadowSlot = s
		case sl.Kind() != block.Real:
			dummySlots[nd] = s
			nd++
		}
	}
	if shadowSlot >= 0 {
		return shadowSlot, c.slots[c.geo.SlotIndex(b, shadowSlot)]
	}
	s := dummySlots[c.slotRNG.Intn(nd)]
	return s, c.slots[c.geo.SlotIndex(b, s)]
}

// dropShadows turns every still-valid shadow of addr on path(label), the
// path addr was just read from, into a dummy: the real copy now lives in
// the stash under a fresh label, whichever leaf the remap drew. A bucket
// the read reshuffled may hold a shadow of addr written before the remap,
// so each slot is tested as it stands now.
func (c *Controller) dropShadows(addr, label uint32) {
	for _, b := range c.geo.Path(label, c.pathBuf) {
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			if sl := c.slots[i]; c.valid.has(i) && sl.Kind() == block.Shadow && sl.Addr() == addr {
				c.slots[i] = 0
			}
		}
	}
}

// evict is Ring ORAM's read-write phase (oram.Shared's eviction step):
// collect the valid contents of path-leaf and rewrite it completely. It
// returns the cycles the read and the write-back end.
func (c *Controller) evict(start int64, leaf uint32) (readEnd, writeEnd int64) {
	path := c.geo.Path(leaf, c.pathBuf)
	_, readEnd = c.ReadBuckets(start, dram.OpRead, path)
	readEnd += oram.AESLatency
	for _, b := range path {
		c.collectBucket(b)
	}
	// Rewrite the path, deepest-first placement plus policy shadows.
	return readEnd, c.writePath(readEnd, leaf, path)
}

// collectBucket moves a bucket's valid blocks into the stash and empties
// it.
func (c *Controller) collectBucket(b int) {
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if sl := c.slots[i]; c.valid.has(i) && sl.Kind() != block.Dummy {
			c.Collect(sl, nil)
		}
		c.slots[i] = 0
		c.valid.remove(i)
	}
}

// writePath refills the collected path (Algorithm 1, Shared.Fill) in
// Ring's slot order: leaf to root, each bucket from slot 0 up, at most Z
// reals among its Z+S slots. Every slot becomes valid again (fresh
// permutation, re-encrypted), and every bucket takes S more reads.
func (c *Controller) writePath(start int64, leaf uint32, path []int) int64 {
	c.Emit(oram.EvPathWrite, leaf, start)
	c.BeginWrite(leaf)
	for lv := c.geo.L; lv >= 0; lv-- {
		b := path[lv]
		reals := 0
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			c.valid.add(i)
			m, _ := c.Fill(lv, reals < c.shape.Z)
			if m.Kind == block.Real {
				reals++
			}
			c.slots[i] = block.NewSlot(m)
		}
		c.readsLeft[b] = uint8(c.shape.S)
	}
	c.EndWrite()
	return c.Write(start, path)
}

// reshuffle rewrites one bucket read S times in place (Ring ORAM's early
// reshuffle), after the read whose batch it follows: its valid reals stay,
// in the bucket's first slots, and every other slot is refilled with a
// shadow or dummy. Shared.Reshuffle records and retires it.
func (c *Controller) reshuffle(start int64, b int) int64 {
	bucket := []int{b}
	_, readEnd := c.ReadBuckets(start, dram.OpRead, bucket)
	readEnd += oram.AESLatency

	reals := c.realsBuf[:0]
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid.has(i) && c.slots[i].Kind() == block.Real {
			reals = append(reals, c.slots[i])
		}
		c.valid.add(i)
	}
	lv := c.geo.BucketLevel(b)
	leaf := c.bucketLeaf(b)
	c.BeginWrite(leaf)
	for s, sl := range reals {
		c.slots[c.geo.SlotIndex(b, s)] = sl
		c.Keep(sl.Meta(c.Label(sl.Addr())), lv)
	}
	for s := len(reals); s < c.geo.Z; s++ {
		m, _ := c.Fill(lv, false)
		c.slots[c.geo.SlotIndex(b, s)] = block.NewSlot(m)
	}
	c.EndWrite()
	c.realsBuf = reals
	c.readsLeft[b] = uint8(c.shape.S)
	return c.Reshuffle(b, leaf, start, readEnd, c.Write(readEnd, bucket))
}

// bucketLeaf returns the leftmost leaf whose path passes through bucket b.
func (c *Controller) bucketLeaf(b int) uint32 {
	lv := c.geo.BucketLevel(b)
	pos := b - ((1 << uint(lv)) - 1)
	return uint32(pos) << uint(c.geo.L-lv)
}
