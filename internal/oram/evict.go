package oram

// Eviction stage: the read-write phase that refills one
// reverse-lexicographic path from the stash after every A read-only
// accesses. When the phase hands the datapath back is the memory port's
// call (Port.Retire), the one thing the timing axes change about it.

// maybeEvict runs the read-write phase when due (Step-4..6): a path read
// of the next reverse-lexicographic path followed by a path write
// refilling it from the stash.
func (c *Controller) maybeEvict(start int64) int64 {
	if c.accessCount%uint64(c.cfg.A) != 0 {
		return start
	}
	leaf := c.sh.NextEviction()
	_, readEnd, _ := c.pathRead(start, leaf, NoAddr, true)
	end := c.pathWrite(readEnd, leaf)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("evict", "oram", tidBackground, start, end, map[string]any{"leaf": leaf})
	}
	return c.Port.Retire(leaf, readEnd, end)
}

// pathWrite implements Algorithm 1 (Shared.Fill) in Path's slot order:
// leaf to root, each bucket from its last slot down, any slot taking a
// real. Every slot is (re-)encrypted and written: the eviction's path read
// has just staged this very path, so in functional mode each slot is
// sealed in place in the stage and the path flushed bucket by bucket.
func (c *Controller) pathWrite(start int64, leaf uint32) int64 {
	c.sh.Emit(EvPathWrite, leaf, start)
	c.sh.BeginWrite(leaf)
	path := c.geo.Path(leaf, c.pathBuf)
	z := c.geo.Z
	for i := c.geo.PathLen() - 1; i >= 0; i-- {
		m, data := c.sh.Fill(i/z, true)
		c.place(i, path[i/z], i%z, m, data)
	}
	c.store.writePath(path)

	// Write back every slot: addrBuf still holds them, staged root to leaf
	// by the eviction's path read of this same path.
	end := c.Port.Write(start, path, c.addrBuf)
	c.sh.EndWrite()
	return end
}
