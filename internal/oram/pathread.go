package oram

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
)

// Path-read stage: stage the off-chip slot addresses of one path, decide
// when the batch may enter the memory system (readIssue), reserve it on
// DRAM as one batch (dispatchRead), and hand the per-slot completion
// cycles to the forward stage. The batch is never split per channel:
// dram.Access only touches the bus and bank of the address's own channel,
// so one interleaved batch in path order reserves exactly the cycles and
// counters per-channel sub-batches would
// (dram.TestChannelSubBatchesMatchInterleavedBatch pins this).

// pathRead implements Algorithm 2: read every slot of path-leaf (treetop
// levels from on-chip storage, the rest through the DRAM model) and forward
// the intended block at the arrival of its earliest copy.
//
// Tiny ORAM's read-only accesses (collectAll=false) move only the intended
// block into the stash — its stale shadows are discarded in place — while
// every other block stays valid in the tree; the read-write phase
// (collectAll=true) moves everything into the stash ahead of the path
// write. This is the RAW Path ORAM decoupling that lets one eviction per A
// accesses keep the stash bounded.
func (c *Controller) pathRead(start int64, leaf, intended uint32, collectAll bool) (forward, end int64, res readResult) {
	if c.observer != nil {
		c.observer(Event{Kind: EvPathRead, Leaf: leaf, Start: start})
	}
	c.stats.ORAMAccesses++
	path := c.geo.Path(leaf, c.pathBuf)
	c.store.readPath(path)
	// Stage the off-chip slot addresses (the levels below the treetop
	// cache), root to leaf.
	c.addrBuf = c.addrBuf[:0]
	for _, bucket := range path[c.cfg.TreetopLevels:] {
		for s := 0; s < c.geo.Z; s++ {
			c.addrBuf = append(c.addrBuf, c.layout.SlotAddr(bucket, s))
		}
	}
	end = start + 1
	if len(c.addrBuf) > 0 {
		end = c.dispatchRead(c.readIssue(start))
	}
	return c.collectAndForward(path, start, end, intended, collectAll)
}

// readIssue decides the cycle the staged batch enters the memory system.
// With the decoupled scheduler, queued writes that may not stay deferred
// (conflicting bucket, starvation bound) retire first, so the read waits
// exactly as long as they require. The serial engine then issues at once:
// it never overlaps an eviction writeback, sh.Busy already orders
// everything. The arbitration below would return the same cycle for it,
// but EarliestBatchStart walks the whole batch (≈ +1 µs of host time per
// request), so the early-out is a measured short-circuit, not a second
// path. The pipelined engine arbitrates against the previous eviction
// writeback still draining into DRAM: the batch issues as soon as the
// first bank it needs can accept a command. While the writeback still
// occupies every involved bank this waits exactly as the banks require;
// once any bank frees, the read overlaps the remaining drain.
func (c *Controller) readIssue(start int64) int64 {
	if c.wb != nil {
		c.wbRetireDue(start)
	}
	if !c.cfg.Pipeline {
		return start
	}
	issue := max(start, c.mem.EarliestBatchStart(c.addrBuf))
	led := c.ledger()
	if stall := issue - start; stall > 0 {
		led.AddResource(metrics.ResReserveStall, stall)
	}
	if ov := c.wbDrain - issue; ov > 0 {
		c.stats.PipelinedReads++
		c.stats.OverlapCycles += uint64(ov)
		led.AddResource(metrics.ResWritebackOverlap, ov)
		c.mc.Observe("wb_overlap", issue, float64(ov))
	} else if c.mc != nil {
		c.mc.Observe("wb_overlap", issue, 0)
	}
	return issue
}

// dispatchRead reserves the staged batch on DRAM, filling doneBuf with
// per-slot completion cycles. Once the read holds its banks and bus, the
// decoupled scheduler slots queued writes whose bank windows open before
// the read completes: under the read's shadow their bank work backfills
// idle bank time and their bursts queue behind the read's on the bus, so
// the read is never delayed.
func (c *Controller) dispatchRead(issue int64) int64 {
	end := c.mem.ReserveBatch(issue, c.readOp, c.addrBuf, c.doneBuf[:len(c.addrBuf)])
	c.traceChannels(c.chanSpanRead, issue, end)
	c.wbSlotBefore(end)
	return end
}

// dispatchWrite reserves the staged writeback on DRAM, or — with the
// decoupled scheduler — parks it as per-bucket ops instead.
func (c *Controller) dispatchWrite(start int64) int64 {
	if c.wb != nil {
		return c.wbPark(start)
	}
	end := c.mem.ReserveBatch(start, dram.OpWrite, c.addrBuf, c.doneBuf[:len(c.addrBuf)])
	c.traceChannels(c.chanSpanWrite, start, end)
	return end
}

// traceChannels draws the batch just reserved as one span per DRAM channel
// on that channel's trace lane (channel mode, tracing only): each
// channel's share of addrBuf ends at its latest doneBuf entry, plus the
// whole batch's tail past its last access (XOR compression's result
// burst). Pure observation of cycles already decided.
func (c *Controller) traceChannels(spans []string, issue, end int64) {
	if spans == nil || c.mc == nil || c.mc.Trace == nil {
		return
	}
	var last [maxChannels]int64
	var blocks [maxChannels]int
	var lastAll int64
	for i, a := range c.addrBuf {
		ch := c.mem.ChannelOf(a)
		last[ch] = max(last[ch], c.doneBuf[i])
		lastAll = max(lastAll, c.doneBuf[i])
		blocks[ch]++
	}
	for ch, name := range spans {
		if blocks[ch] > 0 {
			c.mc.Trace.Span(name, "dram", tidChannel0+ch, issue, last[ch]+end-lastAll,
				map[string]any{"blocks": blocks[ch]})
		}
	}
}
