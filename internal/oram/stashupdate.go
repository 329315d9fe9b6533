package oram

// Stash-update stage: the on-chip work between a path read and the
// eviction decision. It overlaps the read's tail and costs no cycles.

// stashUpdate remaps the intended block to a fresh random path (Step-3;
// a posmap fetch parks in the PLB there), installs a write's payload and
// copies out a functional read's payload.
func (c *Controller) stashUpdate(addr uint32, write bool) {
	c.Remap(addr)
	if write && c.cfg.Functional {
		c.st.Update(addr, c.writeValue(addr))
	}
	// A ReadBlock copies its payload out now: the eviction phase below may
	// push the block straight back into the tree and its buffer into the
	// pool. A parked posmap block is no longer in the stash, so its fetch
	// copies nothing.
	c.capture(addr)
}
