package oram

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
)

// Decoupled per-bucket writeback scheduling (cfg.WBDecoupled).
//
// The coupled engines retire an eviction's path write as one monolithic
// DRAM batch at eviction time, so the writeback's ~(L+1)*Z accesses sit in
// front of the next path read on every bank they share. The decoupled
// scheduler instead parks one write op per refilled bucket in a queue and
// lets demand path reads reserve DRAM first (read priority); queued ops
// drain in three ways, all of which keep the engine's externally visible
// (kind, leaf, order) touch sequence untouched — only reservation cycles
// move:
//
//   - forced: a queued bucket is about to be read again, so its write must
//     land first (correctness — the tree image was already updated at
//     enqueue time, this is purely the timing model catching up), or the
//     op has been deferred wbMaxDefer eviction phases (starvation bound).
//     Forced ops reserve before the read does.
//   - slotted: after a read has reserved its banks and bus, any queued op
//     whose banks open an idle window (dram.NextIdleWindow) under the
//     read's shadow — or, via PumpWritebacks, inside the idle gap before
//     the next demand read presents — retires opportunistically.
//   - flushed: Drain retires whatever is left at end of run.
//
// The queue is bounded by (L+1) buckets per eviction times wbMaxDefer
// phases, every op's addresses live in a fixed-size array, and retirement
// compacts the queue in place: the hot path stays allocation-free.

// maxBucketSlots bounds Z (Config.Validate caps it at 16) so one bucket's
// slot addresses fit a fixed array and enqueueing never allocates.
const maxBucketSlots = 16

// wbMaxDefer is the starvation bound: a queued write retires at most 8
// eviction phases after it was enqueued, even if its banks never go idle
// and its bucket is never read again.
const wbMaxDefer = 8

// wbOp is one queued per-bucket write: the bucket's off-chip slot
// addresses, the eviction phase that produced it, and the cycle its data
// became ready (the earliest cycle the write may occupy DRAM).
type wbOp struct {
	bucket int32
	n      int32
	seq    uint64 // evictCount at enqueue (the starvation-bound clock)
	at     int64  // pathWrite cycle: earliest legal DRAM reservation point
	addrs  [maxBucketSlots]uint64
}

// wbState is the decoupled scheduler's queue. ops is FIFO by enqueue
// order; retirement filters in place, so the backing array stabilises at
// the steady-state high-water mark and stops allocating.
type wbState struct {
	ops  []wbOp
	cost int64 // conservative per-op DRAM duration (fit checks only)
}

// initWriteback builds the scheduler state; called from New when
// cfg.WBDecoupled is set.
func (c *Controller) initWriteback() {
	c.wb = &wbState{
		ops:  make([]wbOp, 0, c.geo.Levels()*(wbMaxDefer+1)),
		cost: c.mem.AccessSpan(c.geo.Z),
	}
}

// wbPark is the decoupled engine's half of dispatchWrite: instead of
// reserving the staged writeback on DRAM it splits addrBuf (z addresses
// per off-chip level, in level order — exactly how pathWrite staged it)
// into one op per bucket and parks them. The datapath is done the moment
// the refill decision is made.
func (c *Controller) wbPark(start int64) int64 {
	z := c.geo.Z
	top := c.cfg.TreetopLevels
	k := 0
	for lv, bucket := range c.pathBuf {
		if lv < top {
			continue
		}
		op := wbOp{bucket: int32(bucket), n: int32(z), seq: c.evictCount, at: start}
		copy(op.addrs[:z], c.addrBuf[k:k+z])
		k += z
		c.wbEnqueue(op)
	}
	return start + 1
}

// wbEnqueue parks one per-bucket write op. A bucket can never have two
// pending ops — the eviction that refills a bucket first reads its whole
// path, and that read force-retires any older op on it — so a duplicate
// here means the conflict scan failed; it is repaired (retire the stale
// op immediately) and counted as an anomaly rather than corrupting the
// one-op-per-bucket invariant.
func (c *Controller) wbEnqueue(op wbOp) {
	for i := range c.wb.ops {
		if c.wb.ops[i].bucket == op.bucket {
			c.stats.Anomalies++
			c.wbReserve(&c.wb.ops[i], op.at)
			c.wb.ops = append(c.wb.ops[:i], c.wb.ops[i+1:]...)
			break
		}
	}
	c.wb.ops = append(c.wb.ops, op)
	c.stats.WBEnqueued++
	if n := len(c.wb.ops); n > c.stats.WBMaxPending {
		c.stats.WBMaxPending = n
	}
}

// wbReserve hands one op to the DRAM model. The reservation enters at
// op.at — the cycle the data was ready — so the bank-state model backfills
// any idle time the bank had since then; per-bank readyAt ordering makes
// this safe against everything already reserved. decision is the cycle
// the scheduler released the op; the op's wait in the queue is charged to
// the writeback_deferred ledger row.
func (c *Controller) wbReserve(op *wbOp, decision int64) int64 {
	end := c.mem.ReserveBatch(op.at, dram.OpWrite, op.addrs[:op.n], nil)
	if end > c.wbDrain {
		c.wbDrain = end
	}
	if wait := decision - op.at; wait > 0 {
		c.stats.WBDeferralCycles += uint64(wait)
		c.ledger().AddResource(metrics.ResWritebackDeferred, wait)
	}
	return end
}

// wbRetireDue force-retires, at the issue decision of a staged path read,
// every queued op that must not stay deferred: ops whose bucket is on the
// path about to be read (the write has to land before its bucket's next
// read — the correctness rule CheckWritebackInvariants pins), and ops
// that hit the wbMaxDefer starvation bound. They reserve DRAM before the
// read computes its own issue cycle, so the read waits exactly as long as
// the forced writes require and no longer.
func (c *Controller) wbRetireDue(start int64) {
	if len(c.wb.ops) == 0 {
		return
	}
	path := c.pathBuf
	kept := c.wb.ops[:0]
	for i := range c.wb.ops {
		op := c.wb.ops[i]
		due := c.evictCount-op.seq >= wbMaxDefer
		if !due {
			for _, b := range path {
				if int32(b) == op.bucket {
					due = true
					break
				}
			}
		}
		if due {
			c.wbReserve(&op, start)
			c.stats.WBForced++
			if c.mc != nil && c.mc.Trace != nil {
				c.mc.Trace.Instant("wb.forced", "oram", tidBackground, start,
					map[string]any{"bucket": op.bucket, "age": c.evictCount - op.seq})
			}
		} else {
			kept = append(kept, op)
		}
	}
	c.wb.ops = kept
}

// wbSlotBefore drains queued ops opportunistically: any op whose banks
// open an idle window (NextIdleWindow) before limit retires into it; the
// rest remain deferred for a later window, the conflict rule, or the
// starvation bound.
func (c *Controller) wbSlotBefore(limit int64) {
	if c.wb == nil || len(c.wb.ops) == 0 {
		return
	}
	kept := c.wb.ops[:0]
	for i := range c.wb.ops {
		op := c.wb.ops[i]
		if win := c.wbWindow(&op); win < limit {
			c.wbSlot(&op, win)
		} else {
			kept = append(kept, op)
		}
	}
	c.wb.ops = kept
}

// PumpWritebacks drains queued eviction writes into the idle gap that
// closes when a demand read presents at cycle now: only ops whose banks
// are idle early enough that a conservative duration estimate finishes
// by now (win+cost <= now) are slotted, so the arriving read — which has
// priority — is never made to wait. The front end (oram.Queue) calls this
// on every presentation; it is a no-op unless cfg.WBDecoupled queued
// something.
func (c *Controller) PumpWritebacks(now int64) {
	if c.wb != nil {
		c.wbSlotBefore(now - c.wb.cost + 1)
	}
}

// wbSlot retires one op into the idle window opening at win, charging the
// drain span to the writeback_slotted ledger row.
func (c *Controller) wbSlot(op *wbOp, win int64) {
	end := c.wbReserve(op, win)
	c.stats.WBSlotted++
	c.ledger().AddResource(metrics.ResWritebackSlotted, end-win)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("wb.slot", "oram", tidBackground, win, end,
			map[string]any{"bucket": op.bucket})
	}
}

// wbWindow is the earliest cycle every bank an op touches has an idle
// window for it (a bucket is one DRAM row, so this is normally a single
// bank's window).
func (c *Controller) wbWindow(op *wbOp) int64 {
	win := op.at
	for _, a := range op.addrs[:op.n] {
		if t := c.mem.NextIdleWindow(a, op.at, c.wb.cost); t > win {
			win = t
		}
	}
	return win
}

// wbFlush retires every still-queued op at end of run (Drain): there is
// no further path read to schedule around.
func (c *Controller) wbFlush() {
	if c.wb == nil || len(c.wb.ops) == 0 {
		return
	}
	for i := range c.wb.ops {
		c.wbReserve(&c.wb.ops[i], c.sh.Busy)
		c.stats.WBFlushed++
	}
	c.wb.ops = c.wb.ops[:0]
}

// PendingWritebacks reports the queued op count (tests and the live debug
// snapshot; zero for the coupled engines).
func (c *Controller) PendingWritebacks() int {
	if c.wb == nil {
		return 0
	}
	return len(c.wb.ops)
}
