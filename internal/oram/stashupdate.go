package oram

// Stash-update stage: the on-chip work between a path read and the
// eviction decision. It overlaps the read's tail and costs no cycles.

// stashUpdate remaps the intended block to a fresh random path (Step-3),
// installs a write's payload, captures the functional read payload, and
// parks posmap fetches in the PLB.
func (c *Controller) stashUpdate(addr uint32, write, parkInPLB bool) {
	c.ledger().NoteStashUpdate()
	c.sh.Remap(addr)
	if write && c.cfg.Functional {
		c.st.Update(addr, c.writeValue(addr))
	}
	if c.cfg.Functional {
		// Capture the payload now: the eviction phase below may push the
		// block straight back into the tree.
		if e, ok := c.st.Lookup(addr); ok {
			c.lastRead = e.Data
		}
	}
	if parkInPLB {
		// Posmap fetches move to the PLB's storage before the eviction
		// phase can sweep them back into the tree.
		c.fillPLB(addr)
	}
}

// writeValue produces the payload stored by a write in functional mode:
// the data supplied through WriteBlock when present, otherwise a marker
// pattern (plain timing writes carry no payload of interest).
func (c *Controller) writeValue(addr uint32) []byte {
	if c.pendingWrite != nil {
		return c.pendingWrite
	}
	v := make([]byte, c.cfg.BlockBytes)
	v[0] = byte(addr)
	return v
}
