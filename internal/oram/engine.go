package oram

// The staged request engine. One LLC request flows through a fixed
// sequence of stages:
//
//	posmap walk  →  path read  →  forward  →  stash update  →  evict
//	(posmap.go)    (pathread.go)  (forward.go) (stashupdate.go) (evict.go)
//
// Every configuration runs this one sequence, so the externally visible
// touch sequence is shared by construction and only reservation cycles
// differ. The walk, the access clock and the eviction schedule are
// Shared's; the engine supplies its read (read) and its read-write phase
// (evict). The timing axes are the memory port's (port.go): the path read
// and write submit their batches to it, and it decides what an eviction
// hands back to the datapath.

// Request serves one LLC miss presented at cycle now through the shared
// request driver (Shared.Request). A functional write a resident real block
// served installs its payload, the one thing Path adds.
func (c *Controller) Request(now int64, addr uint32, write bool) Outcome {
	out := c.Shared.Request(now, addr, write)
	if out.StashHit && write && c.cfg.Functional {
		c.st.Update(addr, c.writeValue(addr))
	}
	return out
}

// read is Path's read step (Shared's): one read-only path read of leaf
// through the engine's explicit stages — path read (which forwards the
// intended data at its earliest copy's arrival) and, for a real read of
// addr, the stash update. It returns the forward cycle of addr's data, the
// cycle the read datapath frees, whether the forward came from on-chip
// state, and whether a tree shadow provided it.
func (c *Controller) read(start int64, leaf, addr uint32, write bool) (forward, end int64, onChip, viaShadow bool) {
	forward, end, res := c.pathRead(start, leaf, addr, false, write)
	if addr != NoAddr {
		if c.mc != nil && c.mc.Trace != nil {
			c.mc.Trace.Span("path.read", "oram", tidRequest, start, end,
				map[string]any{"req": c.stats.Requests, "addr": addr, "leaf": leaf, "fwd_level": res.fwdLevel})
		}
		// Stage: stash update (on-chip, overlapped with the read's tail).
		c.stashUpdate(addr, write)
	}
	return forward, end, res.onChip, res.viaShadow
}
