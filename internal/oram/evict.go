package oram

// Eviction stage: the read-write phase that refills one
// reverse-lexicographic path from the stash. Shared's access clock decides
// when (every A accesses) and which path; when the phase hands the
// datapath back is the memory port's call (Port.Retire), the one thing the
// timing axes change about it.

// evict is Path's read-write phase on leaf (Step-4..6): a path read
// collecting every block followed by a path write refilling it from the
// stash. It returns the cycles the read and the write-back end.
func (c *Controller) evict(start int64, leaf uint32) (readEnd, writeEnd int64) {
	_, readEnd, _ = c.pathRead(start, leaf, NoAddr, true, false)
	return readEnd, c.pathWrite(readEnd, leaf)
}

// pathWrite implements Algorithm 1 (Shared.Fill) in Path's slot order:
// leaf to root, each bucket from its last slot down, any slot taking a
// real. Every slot is (re-)encrypted and written: in functional mode each
// slot is sealed from its plaintext into its window and the path flushed
// bucket by bucket.
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
