package oram

import (
	"shadowblock/internal/block"
	"shadowblock/internal/stash"
)

// Position-map walk stage (FreeCursive): find the deepest translation
// source already on-chip, then fetch the missing posmap blocks top-down,
// parking each fetched block in the PLB. Runs before the data access of
// every non-stash-hit request.

// stagePosmapWalk resolves the request's address translation. Each missing
// posmap block costs one full ORAM access through the same stage sequence
// as a data access (oramAccess with parkInPLB).
func (c *Controller) stagePosmapWalk(rs *reqState) {
	chain := c.pos.Hierarchy().Chain(rs.addr, c.chainBuf)
	c.chainBuf = chain
	fetchFrom := len(chain) // default: only the on-chip top level knows a label
	for i := 1; i < len(chain); i++ {
		if c.plb != nil && c.plb.Hit(uint64(chain[i])) {
			fetchFrom = i
			break
		}
		if e, ok := c.st.Lookup(chain[i]); ok && e.Meta.Kind == block.Real {
			fetchFrom = i
			break
		}
	}
	rs.pmStart = rs.cur
	for i := fetchFrom - 1; i >= 1; i-- {
		_, end, _, _ := c.oramAccess(rs.cur, chain[i], false, true)
		c.stats.PMAccesses++
		rs.cur = end
	}
	rs.pmEnd = rs.cur
	rs.pmLevels = fetchFrom - 1
}

// fillPLB moves a fetched posmap block from the stash into the PLB (both
// on-chip, so this is free). A displaced PLB entry re-enters the stash and
// flows back to the tree with the ordinary eviction stream — FreeCursive's
// PLB eviction costs no dedicated ORAM access.
func (c *Controller) fillPLB(addr uint32) {
	if c.plb == nil {
		return
	}
	hit, victim, _, evicted := c.plb.Access(uint64(addr), true)
	if hit {
		return
	}
	// The block just arrived in the stash through its fetch; park it in the
	// PLB's storage instead.
	if e, ok := c.st.Take(addr); ok {
		c.plbBlocks[addr] = e.Meta
	} else {
		c.stats.Anomalies++
		c.plb.Invalidate(uint64(addr))
		return
	}
	if evicted {
		v := uint32(victim)
		m, ok := c.plbBlocks[v]
		if !ok {
			c.stats.Anomalies++
			return
		}
		delete(c.plbBlocks, v)
		c.stats.PLBWritebacks++
		if c.st.Insert(stash.Entry{Meta: m, Data: c.cfg.zeroPlain()}) == stash.Overflow {
			c.stats.StashOverflows++
		}
	}
}
