package oram

// Path-read stage: submit one path to the memory port as one read batch
// (port.go stages its slots, drops the on-chip levels and reserves the
// rest), and hand the per-slot completion cycles to the forward stage.

// pathRead implements Algorithm 2: read every slot of path-leaf (treetop
// levels from on-chip storage, the rest through the DRAM model) and forward
// the intended block at the arrival of its earliest copy.
//
// Tiny ORAM's read-only accesses (collectAll=false) move only the intended
// block into the stash — its shadows are discarded in place — while
// every other block stays valid in the tree; the read-write phase
// (collectAll=true) moves everything into the stash ahead of the path
// write. This is the RAW Path ORAM decoupling that lets one eviction per A
// accesses keep the stash bounded.
//
// In functional mode the collect scan reads the path's sealed buckets and
// opens exactly the slots it collects; write marks an access that serves
// a write, whose payload replaces the block's.
func (c *Controller) pathRead(start int64, leaf, intended uint32, collectAll, write bool) (forward, end int64, res readResult) {
	path := c.geo.Path(leaf, c.pathBuf)
	done, end := c.ReadBuckets(start, c.ReadOp, path)
	return c.collectAndForward(path, done, start, end, intended, collectAll, write)
}
