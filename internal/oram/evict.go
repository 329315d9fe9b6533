package oram

import (
	"slices"

	"shadowblock/internal/block"
	"shadowblock/internal/metrics"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Eviction stage: the read-write phase that refills one
// reverse-lexicographic path from the stash after every A read-only
// accesses. When the phase hands the datapath back (evictRetire) is the
// one thing the timing axes change about it: the serial engine holds the
// datapath until the writeback completes; the pipelined engine frees it at
// the end of the eviction's path read and leaves the writeback draining in
// wbDrain, where the next path read's bank arbitration sees it; the
// decoupled scheduler has parked the writes, so nothing is left to wait on.

// maybeEvict runs the read-write phase when due (Step-4..6): a path read
// of the next reverse-lexicographic path followed by a path write
// refilling it from the stash.
func (c *Controller) maybeEvict(start int64) int64 {
	if c.accessCount%uint64(c.cfg.A) != 0 {
		return start
	}
	leaf := c.geo.ReverseLexLeaf(c.evictCount)
	c.evictCount++
	c.stats.EvictionPhases++
	_, readEnd, _ := c.pathRead(start, leaf, NoAddr, true)
	end := c.pathWrite(readEnd, leaf)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("evict", "oram", tidBackground, start, end, map[string]any{"leaf": leaf})
	}
	return c.evictRetire(leaf, readEnd, end)
}

// evictRetire returns the cycle the eviction frees the datapath.
func (c *Controller) evictRetire(leaf uint32, readEnd, writeEnd int64) int64 {
	tracing := c.mc != nil && c.mc.Trace != nil
	switch {
	case c.wb != nil:
		// dispatchWrite parked the per-bucket writes (writeEnd is
		// readEnd+1, the staging cost) and each op retires when the
		// scheduler slots or forces it. wbDrain is not touched here —
		// wbReserve max-updates it per retired op.
		if tracing {
			c.mc.Trace.Span("evict.queued", "oram", tidBackground, readEnd, writeEnd,
				map[string]any{"leaf": leaf, "pending": len(c.wb.ops)})
		}
		return writeEnd
	case c.cfg.Pipeline:
		// The refill decision is made at the end of the eviction's path
		// read; the writeback drains behind it, tracked in wbDrain so the
		// next path read may overlap it.
		c.wbDrain = writeEnd
		if drain := writeEnd - readEnd; drain > 0 {
			c.ledger().AddResource(metrics.ResWritebackDrain, drain)
		}
		if tracing {
			c.mc.Trace.Span("evict.writeback", "oram", tidBackground, readEnd, writeEnd,
				map[string]any{"leaf": leaf})
		}
		return readEnd
	}
	// Serial: the datapath stays busy until the writeback has fully drained.
	return writeEnd
}

// pathWrite implements Algorithm 1: refill path-leaf from the stash as deep
// as possible; free slots go to the duplication policy before defaulting to
// dummies. Every slot is (re-)encrypted and written: the eviction's path
// read has just staged this very path, so in functional mode each slot is
// sealed in place in the stage and the path flushed bucket by bucket.
func (c *Controller) pathWrite(start int64, leaf uint32) int64 {
	if c.observer != nil {
		c.observer(Event{Kind: EvPathWrite, Leaf: leaf, Start: start})
	}
	c.policy.BeginPathWrite(leaf)
	path := c.geo.Path(leaf, c.pathBuf)
	z := c.geo.Z

	pools := c.poolsBuf
	FillEvictPools(pools, c.geo, c.st, leaf)
	for k := range c.placedData {
		delete(c.placedData, k)
	}

	for i := c.geo.PathLen() - 1; i >= 0; i-- {
		lv := i / z
		s := i % z
		bucket := path[lv]

		if addr, found := PopDeepest(pools, lv); found {
			e, ok := c.st.Take(addr)
			if !ok {
				c.stats.Anomalies++
				continue
			}
			c.place(i, bucket, s, e.Meta, e.Data)
			if c.cfg.Functional {
				c.placedData[e.Meta.Addr] = e.Data
			}
			c.policy.NoteEvict(e.Meta, lv)
			continue
		}
		if m, ok := c.policy.SelectDup(leaf, lv); ok {
			c.place(i, bucket, s, m, c.dupPayload(m.Addr))
			c.policy.NoteEvict(m, lv)
			continue
		}
		c.place(i, bucket, s, block.DummyMeta, nil)
	}
	c.store.writePath(path)

	// Write back every off-chip slot: addrBuf still holds them, staged
	// root to leaf by the eviction's path read of this same path.
	end := start + 1
	if len(c.addrBuf) > 0 {
		end = c.dispatchWrite(start)
	}
	c.policy.EndPathWrite()
	return end
}

// FillEvictPools buckets the stash's real blocks by how deep they may go
// on path-leaf: pools[d] (one pool per tree level) receives the addresses
// whose label leaves path-leaf below level d, ascending. The order is the
// canonical placement order: the stash's internal layout depends on how
// many shadows passed through it, and placement must not — the security
// tests rely on Tiny and Shadow ORAM evicting identically. Shared by every
// engine that refills a path from a stash.
func FillEvictPools(pools [][]uint32, geo tree.Geometry, st *stash.Stash, leaf uint32) {
	for i := range pools {
		pools[i] = pools[i][:0]
	}
	st.ForEachReal(func(e stash.Entry) {
		il := geo.IntersectLevel(e.Meta.Label, leaf)
		pools[il] = append(pools[il], e.Meta.Addr)
	})
	// slices.Sort, not sort.Slice: the interface-based sorter allocates a
	// closure and a swapper per call on the request path.
	for i := range pools {
		slices.Sort(pools[i])
	}
}

// PopDeepest pops the deepest-eligible block for a slot at level lv: the
// last address of the deepest non-empty pool at level >= lv.
func PopDeepest(pools [][]uint32, lv int) (uint32, bool) {
	for d := len(pools) - 1; d >= lv; d-- {
		if n := len(pools[d]); n > 0 {
			a := pools[d][n-1]
			pools[d] = pools[d][:n-1]
			return a, true
		}
	}
	return 0, false
}

// dupPayload finds the plaintext for a shadow copy of addr: either the
// block was placed earlier in this very path write, or a shadow of it is
// still resident in the stash.
func (c *Controller) dupPayload(addr uint32) []byte {
	if !c.cfg.Functional {
		return nil
	}
	if d, ok := c.placedData[addr]; ok {
		return d
	}
	if e, ok := c.st.Lookup(addr); ok {
		return e.Data
	}
	c.stats.Anomalies++
	return c.cfg.zeroPlain()
}
