package oram

import (
	"fmt"

	"shadowblock/internal/dram"
)

// Decoupled per-bucket writeback scheduling (cfg.WBDecoupled).
//
// The coupled engines retire a write-back as one monolithic DRAM batch when
// it is submitted, so its accesses sit in front of the next path read on
// every bank they share. The decoupled scheduler instead parks one write op
// per written bucket in a queue and lets reads reserve DRAM first (read
// priority); queued ops drain in three ways, all of which keep the engine's
// externally visible (kind, leaf, order) touch sequence untouched — only
// reservation cycles move:
//
//   - forced: a queued bucket is about to be read again, so its write must
//     land first (correctness — the tree image was already updated at
//     enqueue time, this is purely the timing model catching up), or the
//     op has been deferred wbMaxDefer eviction phases (starvation bound).
//     Forced ops reserve before the read does.
//   - slotted: after a read has reserved its banks and bus, any queued op
//     whose banks open an idle window (dram.NextIdleWindow) under the
//     read's shadow — or, via wbPump, inside the idle gap before the next
//     request presents — retires opportunistically.
//   - flushed: Drain retires whatever is left at end of run.
//
// Every op's addresses live in a fixed-size array, and retirement compacts
// the queue in place: the hot path stays allocation-free.

// maxBucketSlots bounds an engine's slots per bucket (Path's Z and Ring's
// Z+S are both capped at 16) so one bucket's slot addresses fit a fixed
// array and enqueueing never allocates.
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
	seq    uint64 // eviction count at enqueue (the starvation-bound clock)
	at     int64  // Write cycle: earliest legal DRAM reservation point
	addrs  [maxBucketSlots]uint64
}

// wbState is the decoupled scheduler's queue. ops is FIFO by enqueue
// order; retirement filters in place, so the backing array stabilises at
// the steady-state high-water mark and stops allocating.
type wbState struct {
	ops  []wbOp
	cost int64 // conservative per-op DRAM duration (fit checks only)
}

// wbPark is the decoupled half of Write: instead of reserving the
// write-back on DRAM it splits addrs (the same number of slot addresses per
// bucket, in bucket order) into one op per bucket and parks them. The
// datapath is done the moment the refill decision is made.
func (p *Port) wbPark(start int64, buckets []int, addrs []uint64) int64 {
	n := len(addrs) / len(buckets)
	for i, bucket := range buckets {
		op := wbOp{bucket: int32(bucket), n: int32(n), seq: p.stats.EvictionPhases, at: start}
		copy(op.addrs[:n], addrs[i*n:])
		p.wbEnqueue(op)
	}
	return start + 1
}

// wbEnqueue parks one per-bucket write op. A bucket can never have two
// pending ops — every write of a bucket follows a read of it, and that
// read force-retires any older op on it — so a duplicate here means the
// conflict scan failed; it is repaired (retire the stale op immediately)
// and counted as an anomaly rather than corrupting the one-op-per-bucket
// invariant.
func (p *Port) wbEnqueue(op wbOp) {
	for i := range p.wb.ops {
		if p.wb.ops[i].bucket == op.bucket {
			p.stats.Anomalies++
			p.wbReserve(&p.wb.ops[i], op.at)
			p.wb.ops = append(p.wb.ops[:i], p.wb.ops[i+1:]...)
			break
		}
	}
	p.wb.ops = append(p.wb.ops, op)
	p.stats.WBEnqueued++
	if n := len(p.wb.ops); n > p.stats.WBMaxPending {
		p.stats.WBMaxPending = n
	}
}

// wbReserve hands one op to the DRAM model. The reservation enters at
// op.at — the cycle the data was ready — so the bank-state model backfills
// any idle time the bank had since then; per-bank readyAt ordering makes
// this safe against everything already reserved. decision is the cycle
// the scheduler released the op; the op's wait in the queue counts into
// Stats.WBDeferralCycles.
func (p *Port) wbReserve(op *wbOp, decision int64) int64 {
	end := p.mem.ReserveBatch(op.at, dram.OpWrite, op.addrs[:op.n], nil)
	if end > p.drain {
		p.drain = end
	}
	if wait := decision - op.at; wait > 0 {
		p.stats.WBDeferralCycles += uint64(wait)
	}
	return end
}

// wbRetireDue force-retires, at the issue decision of a read of buckets,
// every queued op that must not stay deferred: ops whose bucket is about
// to be read (the write has to land before its bucket's next read — the
// correctness rule CheckWritebackInvariants pins), and ops that hit the
// wbMaxDefer starvation bound. They reserve DRAM before the read computes
// its own issue cycle, so the read waits exactly as long as the forced
// writes require and no longer.
func (p *Port) wbRetireDue(start int64, buckets []int) {
	if len(p.wb.ops) == 0 {
		return
	}
	kept := p.wb.ops[:0]
	for i := range p.wb.ops {
		op := p.wb.ops[i]
		due := p.stats.EvictionPhases-op.seq >= wbMaxDefer
		if !due {
			for _, b := range buckets {
				if int32(b) == op.bucket {
					due = true
					break
				}
			}
		}
		if due {
			p.wbReserve(&op, start)
			p.stats.WBForced++
			if p.mc != nil && p.mc.Trace != nil {
				p.mc.Trace.Instant("wb.forced", "oram", tidBackground, start,
					map[string]any{"bucket": op.bucket, "age": p.stats.EvictionPhases - op.seq})
			}
		} else {
			kept = append(kept, op)
		}
	}
	p.wb.ops = kept
}

// wbSlotBefore drains queued ops opportunistically: any op whose banks
// open an idle window (NextIdleWindow) before limit retires into it; the
// rest remain deferred for a later window, the conflict rule, or the
// starvation bound.
func (p *Port) wbSlotBefore(limit int64) {
	if p.wb == nil || len(p.wb.ops) == 0 {
		return
	}
	kept := p.wb.ops[:0]
	for i := range p.wb.ops {
		op := p.wb.ops[i]
		if win := p.wbWindow(&op); win < limit {
			p.wbSlot(&op, win)
		} else {
			kept = append(kept, op)
		}
	}
	p.wb.ops = kept
}

// wbPump drains queued write ops into the idle gap that closes when a
// request presents at cycle now: only ops whose banks are idle early
// enough that a conservative duration estimate finishes by now
// (win+cost <= now) are slotted, so the arriving read — which has
// priority — is never made to wait. Shared.advance calls it before every
// request; it is a no-op unless cfg.WBDecoupled queued something.
func (p *Port) wbPump(now int64) {
	if p.wb != nil {
		p.wbSlotBefore(now - p.wb.cost + 1)
	}
}

// wbSlot retires one op into the idle window opening at win, counting it
// into Stats.WBSlotted.
func (p *Port) wbSlot(op *wbOp, win int64) {
	end := p.wbReserve(op, win)
	p.stats.WBSlotted++
	if p.mc != nil && p.mc.Trace != nil {
		p.mc.Trace.Span("wb.slot", "oram", tidBackground, win, end,
			map[string]any{"bucket": op.bucket})
	}
}

// wbWindow is the earliest cycle every bank an op touches has an idle
// window for it (a bucket is one DRAM row, so this is normally a single
// bank's window).
func (p *Port) wbWindow(op *wbOp) int64 {
	win := op.at
	for _, a := range op.addrs[:op.n] {
		if t := p.mem.NextIdleWindow(a, op.at); t > win {
			win = t
		}
	}
	return win
}

// wbFlush retires every still-queued op at end of run (Drain), released at
// busy: there is no further read to schedule around.
func (p *Port) wbFlush(busy int64) {
	if p.wb == nil || len(p.wb.ops) == 0 {
		return
	}
	for i := range p.wb.ops {
		p.wbReserve(&p.wb.ops[i], busy)
		p.stats.WBFlushed++
	}
	p.wb.ops = p.wb.ops[:0]
}

// CheckWritebackInvariants verifies the decoupled writeback scheduler's
// structural guarantees at a quiescent point (between Request calls):
//
//  1. At most one queued op per bucket — any read of a bucket, including
//     the read of the phase that would rewrite it, force-retires the
//     bucket's pending write first, so a second op can never form behind
//     an unretired one.
//  2. No queued op has outlived the wbMaxDefer starvation bound: ops at
//     the bound retire at the next read, and every eviction phase begins
//     with one, so at rest every op's age is strictly below it.
//  3. Each op covers exactly one bucket, all its slot addresses, and never
//     an OnChip one.
//  4. The retirement accounting closes: enqueued = slotted + forced +
//     flushed + still pending.
//
// Nil when the scheduler is off. O(queue length); for tests, not the hot
// path.
func (p *Port) CheckWritebackInvariants() error {
	if p.wb == nil {
		return nil
	}
	seen := make(map[int32]bool, len(p.wb.ops))
	for i := range p.wb.ops {
		op := &p.wb.ops[i]
		if seen[op.bucket] {
			return fmt.Errorf("writeback: bucket %d has two queued ops", op.bucket)
		}
		seen[op.bucket] = true
		if age := p.stats.EvictionPhases - op.seq; age >= wbMaxDefer {
			return fmt.Errorf("writeback: bucket %d deferred %d eviction phases (bound %d)",
				op.bucket, age, wbMaxDefer)
		}
		if int(op.n) != p.geo.Z {
			return fmt.Errorf("writeback: bucket %d op has %d slots, want %d", op.bucket, op.n, p.geo.Z)
		}
		if p.OnChip(int(op.bucket)) {
			return fmt.Errorf("writeback: on-chip bucket %d has a queued DRAM write", op.bucket)
		}
	}
	retired := p.stats.WBSlotted + p.stats.WBForced + p.stats.WBFlushed
	if p.stats.WBEnqueued != retired+uint64(len(p.wb.ops)) {
		return fmt.Errorf("writeback: %d enqueued != %d retired + %d pending",
			p.stats.WBEnqueued, retired, len(p.wb.ops))
	}
	return nil
}
