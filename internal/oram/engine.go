package oram

// The staged request engine. One LLC request flows through a fixed
// sequence of stages:
//
//	posmap walk  →  path read  →  forward  →  stash update  →  evict
//	(posmap.go)    (pathread.go)  (forward.go) (stashupdate.go) (evict.go)
//
// Every configuration runs this one sequence, so the externally visible
// touch sequence is shared by construction and only reservation cycles
// differ. The timing axes are the memory port's (port.go): the path read
// and write submit their batches to it, and it decides what an eviction
// hands back to the datapath.

// Request serves one LLC miss presented at cycle now through the shared
// request driver (Shared.Serve). A functional write a resident real block
// served installs its payload, the one thing Path adds.
func (c *Controller) Request(now int64, addr uint32, write bool) Outcome {
	out := c.sh.Serve(c.Port, now, addr, write)
	if out.StashHit && write && c.cfg.Functional {
		c.st.Update(addr, c.writeValue(addr))
	}
	return out
}

// oramAccess is Path's data-access step (the shared walk's and Serve's):
// one read-only ORAM access for addr through the engine's explicit stages
// — path read (which forwards the intended data at its earliest copy's
// arrival), stash update, eviction writeback when due. It returns the
// forward cycle of addr's data, the cycle the read datapath frees, whether
// the forward came from on-chip state, and whether a tree shadow provided
// it.
func (c *Controller) oramAccess(start int64, addr uint32, write bool) (forward, end int64, onChip, viaShadow bool) {
	label := c.sh.Label(addr)

	// Stage: path read + forward.
	var res readResult
	forward, end, res = c.pathRead(start, label, addr, false, write)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("path.read", "oram", tidRequest, start, end,
			map[string]any{"req": c.stats.Requests, "addr": addr, "leaf": label, "fwd_level": res.fwdLevel})
	}

	// Stage: stash update (on-chip, overlapped with the read's tail).
	c.stashUpdate(addr, write)

	// Stage: eviction writeback, every A accesses.
	c.accessCount++
	end = c.maybeEvict(end)
	c.sh.Busy = end
	return forward, end, res.onChip, res.viaShadow
}

// issueDummy is the shared clock's dummy step: one path read of a random
// leaf, counted towards the eviction rate like any other access.
func (c *Controller) issueDummy(start int64) {
	leaf := uint32(c.dummyRNG.Uint64n(uint64(c.geo.NumLeaves())))
	_, end, _ := c.pathRead(start, leaf, NoAddr, false, false)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("dummy", "oram", tidBackground, start, end, map[string]any{"leaf": leaf})
	}
	c.accessCount++
	end = c.maybeEvict(end)
	c.sh.Busy = end
}
