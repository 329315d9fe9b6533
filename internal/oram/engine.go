package oram

import (
	"fmt"

	"shadowblock/internal/block"
)

// The staged request engine. One LLC request flows through a fixed
// sequence of stages:
//
//	posmap walk  →  path read  →  forward  →  stash update  →  evict
//	(Shared.Walk)  (pathread.go)  (forward.go) (stashupdate.go) (evict.go)
//
// Every configuration runs this one sequence, so the externally visible
// touch sequence is shared by construction and only reservation cycles
// differ. The timing axes are the memory port's (port.go): the path read
// and write submit their batches to it, and it decides what an eviction
// hands back to the datapath.

// Request serves one LLC miss presented at cycle now. In timing-protection
// mode, dummy requests are first issued for every unclaimed slot before
// now, then the request takes the next slot.
func (c *Controller) Request(now int64, addr uint32, write bool) Outcome {
	if int(addr) >= c.cfg.NumDataBlocks() {
		panic(fmt.Sprintf("oram: address %d outside the data space", addr))
	}
	if out, served := c.tryStashHit(now, addr, write); served {
		return out
	}

	start := c.sh.Align(now)
	evictsBefore := c.stats.EvictionPhases
	pmEnd, pmLevels := c.sh.Walk(start, addr)
	forward, _, onChip, viaShadow := c.oramAccess(pmEnd, addr, write)
	if viaShadow {
		c.stats.ShadowForwards++
	}
	if onChip {
		c.stats.OnChipHits++
	}

	// Done is the completion of the work this request triggered: the read
	// datapath, plus — only when one of its accesses tripped an eviction —
	// the writeback still draining behind it. A pipelined request that
	// merely overlapped someone else's writeback is not charged for it.
	done := c.sh.Busy
	if c.stats.EvictionPhases != evictsBefore {
		done = c.Port.Completion(c.sh.Busy)
	}
	out := Outcome{Start: start, Forward: forward, Done: done, OnChip: onChip}
	// Eq. 1 charges the request's datapath window to data-access time. The
	// serial engine's sh.Busy includes the writeback, so this matches
	// Done-Start there; the pipelined engine accounts a draining writeback
	// as background (DRI) work, keeping the decomposition additive even
	// when the next request's window overlaps the drain.
	c.stats.DataAccessCycles += c.sh.Busy - out.Start
	if c.mc != nil {
		c.observeRequest(now, addr, write, out, viaShadow, start, pmEnd, pmLevels)
	}
	c.sh.Retire(out)
	return out
}

// tryStashHit opens the request through the shared head and, when it was
// served out of resident on-chip state, adds what only this engine has: a
// functional write's payload and the observation.
func (c *Controller) tryStashHit(now int64, addr uint32, write bool) (Outcome, bool) {
	out, hit, served := c.sh.Begin(now, addr, write)
	if !served {
		return out, false
	}
	if hit == block.Real && write && c.cfg.Functional {
		c.st.Update(addr, c.writeValue(addr))
	}
	if c.mc != nil {
		c.observeRequest(now, addr, write, out, hit == block.Shadow, 0, 0, 0)
	}
	return out, true
}

// oramAccess performs one read-only ORAM access for addr through the
// engine's explicit stages — path read (which forwards the intended data
// at its earliest copy's arrival), stash update, eviction writeback when
// due. It returns the forward cycle of addr's data, the cycle the read
// datapath frees, whether the forward came from on-chip state, and whether
// a tree shadow provided it.
func (c *Controller) oramAccess(start int64, addr uint32, write bool) (forward, end int64, onChip, viaShadow bool) {
	start = max(start, c.sh.Busy)
	label := c.sh.Label(addr)

	// Stage: path read + forward.
	var res readResult
	forward, end, res = c.pathRead(start, label, addr, false, write)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("path.read", "oram", tidRequest, start, end,
			map[string]any{"req": c.stats.Requests, "addr": addr, "leaf": label, "fwd_level": res.fwdLevel})
	}
	if res.realLevel >= 0 {
		c.stats.FwdSamples++
		c.stats.SumFwdLevel += uint64(res.fwdLevel)
		c.stats.SumRealLevel += uint64(res.realLevel)
		c.stats.SumFwdCycles += uint64(forward - start)
		c.stats.SumEndCycles += uint64(end - start)
	}

	// Stage: stash update (on-chip, overlapped with the read's tail).
	c.stashUpdate(addr, write)

	// Stage: eviction writeback, every A accesses.
	c.accessCount++
	end = c.maybeEvict(end)
	c.sh.Busy = end
	return forward, end, res.onChip, res.viaShadow
}

// fetch is the shared walk's access step for one position-map block.
func (c *Controller) fetch(start int64, addr uint32) int64 {
	_, end, _, _ := c.oramAccess(start, addr, false)
	return end
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
