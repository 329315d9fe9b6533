package oram

import (
	"fmt"

	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/tree"
)

// Port is the memory port below the engine seam: how a batch of slot
// addresses reaches DRAM, written once for every engine (Shared embeds
// it). An engine submits the buckets one protocol step touches —
// ReadBuckets and Write stage all their slots, Read takes slots the engine
// staged through Layout — and Retire when a read-write phase hands the
// datapath back.
// The two memory-system axes live here and nowhere else — Channels (the
// layout and DRAM model newPort builds; a batch is reserved flat, since
// dram.Access only touches its own channel's bus and bank) and
// WBDecoupled (writeback.go) — and neither changes which buckets a step
// touches or in what order. So does the
// treetop cache's boundary (OnChip): Read and Write drop the on-chip
// buckets of a batch themselves.
type Port struct {
	// Layout maps the engine's buckets to DRAM byte addresses.
	Layout tree.Layout
	// ReadOp is the op of a demand path read: off-bus under XOR compression.
	ReadOp dram.Op

	geo     tree.Geometry
	treetop int // buckets below this index are on-chip: the top TreetopLevels levels
	mem     *dram.Memory
	stats   *Stats // the engine's; EvictionPhases is the write-back starvation clock
	mc      *metrics.Collector

	// drain is the completion cycle of the last parked write-back still
	// draining into DRAM behind a freed datapath: max-updated by every
	// retired decoupled write op (always 0 on the serial port).
	drain int64

	// retires counts Retire calls: the write-backs the engine handed the
	// port, which Shared.Request compares around a request for its Done
	// rule.
	retires uint64

	// wb is the decoupled scheduler's queue; nil unless cfg.WBDecoupled.
	wb *wbState

	// The staged slot addresses of the last whole-bucket batch and its
	// per-access completion cycles: ReadBuckets hands done out, valid until
	// the port's next batch.
	addrs []uint64
	done  []int64

	// Precomputed per-channel names, so observation never formats strings:
	// the trace spans in channel mode (nil otherwise), and the utilisation
	// series for every channel of the DRAM model.
	chanSpanRead  []string
	chanSpanWrite []string
	chanSeries    []string
}

// newPort builds the memory port for an engine of geometry geo (geo.Z is
// the engine's slots per bucket): the layout and DRAM model cfg selects and,
// with cfg.WBDecoupled, the write-back queue. The port counts into stats and
// reads the engine's eviction count there.
func newPort(cfg *Config, geo tree.Geometry, stats *Stats) (*Port, error) {
	dcfg := cfg.DRAM
	layout := tree.NewLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes)
	if cfg.Channels > 0 {
		dcfg.Channels = cfg.Channels
		var err error
		if layout, err = tree.NewChannelLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes, cfg.Channels); err != nil {
			return nil, err
		}
	}
	mem, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	p := &Port{Layout: layout, ReadOp: dram.OpRead, geo: geo, mem: mem,
		stats: stats, addrs: make([]uint64, 0, geo.PathLen()), done: make([]int64, geo.PathLen()),
		treetop: 1<<cfg.TreetopLevels - 1}
	if cfg.XOR {
		p.ReadOp = dram.OpReadOffBus
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		p.chanSpanRead = append(p.chanSpanRead, fmt.Sprintf("path.read.c%d", ch))
		p.chanSpanWrite = append(p.chanSpanWrite, fmt.Sprintf("path.write.c%d", ch))
	}
	for ch := 0; ch < mem.NumChannels(); ch++ {
		p.chanSeries = append(p.chanSeries, fmt.Sprintf("dram_util_c%d", ch))
	}
	if cfg.WBDecoupled {
		p.wb = &wbState{
			ops:  make([]wbOp, 0, geo.Levels()*(wbMaxDefer+1)),
			cost: mem.AccessSpan(geo.Z),
		}
	}
	return p, nil
}

// SetMetrics attaches the engine's collector (nil detaches).
func (p *Port) SetMetrics(mc *metrics.Collector) { p.mc = mc }

// OnChip reports whether bucket sits in the treetop cache: its slots are
// read and written on-chip, never through DRAM.
func (p *Port) OnChip(bucket int) bool { return bucket < p.treetop }

// offChip drops the on-chip buckets leading a root-to-leaf batch, and
// their slots, from buckets and addrs (the same number of slots per bucket,
// in bucket order). It returns how many slots it dropped.
func (p *Port) offChip(buckets []int, addrs []uint64) ([]int, []uint64, int) {
	k := 0
	for k < len(buckets) && p.OnChip(buckets[k]) {
		k++
	}
	if k == 0 {
		return buckets, addrs, 0
	}
	n := len(addrs) / len(buckets) * k
	return buckets[k:], addrs[n:], n
}

// Read reserves a read of addrs — the staged slots of buckets, a
// root-to-leaf batch, in order — presented at start, fills done with each
// off-chip access's completion cycle (at the access's own index; the
// on-chip entries are left alone) and returns the batch's. A batch with no
// off-chip bucket costs one cycle.
// Once the read holds its banks and bus, queued decoupled writes whose bank
// windows open before it completes retire under its shadow: their bank work
// backfills idle bank time and their bursts queue behind the read's, so the
// read is never delayed.
func (p *Port) Read(start int64, op dram.Op, buckets []int, addrs []uint64, done []int64) int64 {
	buckets, addrs, n := p.offChip(buckets, addrs)
	done = done[n:]
	if len(addrs) == 0 {
		return start + 1
	}
	p.readIssue(start, buckets)
	end := p.mem.ReserveBatch(start, op, addrs, done)
	p.traceChannels(p.chanSpanRead, addrs, done, start, end)
	p.wbSlotBefore(end)
	return end
}

// ReadBuckets reads every slot of buckets, a root-to-leaf batch, with op
// (Read): done holds each slot's completion cycle, slot s of buckets[i] at
// i*Z+s, until the port's next batch.
func (p *Port) ReadBuckets(start int64, op dram.Op, buckets []int) (done []int64, end int64) {
	addrs := p.stage(buckets)
	done = p.done[:len(addrs)]
	return done, p.Read(start, op, buckets, addrs, done)
}

// stage returns the slot addresses of buckets, every slot of each, in
// bucket order.
func (p *Port) stage(buckets []int) []uint64 {
	p.addrs = p.addrs[:0]
	for _, b := range buckets {
		p.addrs = p.Layout.AppendSlotAddrs(p.addrs, b)
	}
	return p.addrs
}

// readIssue prepares the memory system for a read presented at start.
// With the decoupled scheduler, queued writes that may not stay deferred
// (bucket about to be read, starvation bound) retire first, so the read
// waits exactly as long as they require. The read itself issues at start
// on every engine: ReserveBatch starts each access at max(start, its
// bank's ready time), so a read behind a write-back still draining
// overlaps it on the banks that are free and waits exactly as the others
// require (dram's TestReserveBatchNeedsNoIssueArbitration). The cycles the
// read presents before that draining work completes are its overlap; only
// a read that overlaps is counted and observed.
func (p *Port) readIssue(start int64, buckets []int) {
	if p.wb != nil {
		p.wbRetireDue(start, buckets)
	}
	if ov := p.drain - start; ov > 0 {
		p.stats.OverlappedReads++
		p.stats.OverlapCycles += uint64(ov)
		p.mc.Observe("wb_overlap", start, float64(ov))
	}
}

// Write submits the write-back of every slot of buckets, a root-to-leaf
// batch, at start and returns the cycle the engine may count it done: the
// off-chip buckets' completion, or — with the decoupled scheduler, which
// parks one op per off-chip bucket instead — start+1, the staging cost. A
// batch with no off-chip bucket costs one cycle.
func (p *Port) Write(start int64, buckets []int) int64 {
	buckets, addrs, _ := p.offChip(buckets, p.stage(buckets))
	if len(addrs) == 0 {
		return start + 1
	}
	if p.wb != nil {
		return p.wbPark(start, buckets, addrs)
	}
	done := p.done[:len(addrs)]
	end := p.mem.ReserveBatch(start, dram.OpWrite, addrs, done)
	p.traceChannels(p.chanSpanWrite, addrs, done, start, end)
	return end
}

// Retire returns the cycle a read-write phase on leaf — its read done at
// readEnd, its write-back submitted to end at writeEnd — frees the
// datapath: writeEnd in both write-back modes. The serial port holds the
// datapath until the write-back completes. The decoupled scheduler has parked the
// writes, so writeEnd is readEnd+1, the staging cost, and each op retires
// when the scheduler slots or forces it, max-updating drain.
func (p *Port) Retire(leaf uint32, readEnd, writeEnd int64) int64 {
	p.retires++
	if p.wb != nil && p.mc != nil && p.mc.Trace != nil {
		p.mc.Trace.Span("evict.queued", "oram", tidBackground, readEnd, writeEnd,
			map[string]any{"leaf": leaf, "pending": len(p.wb.ops)})
	}
	return writeEnd
}

// completion is the cycle every piece of submitted work is finished, for a
// datapath that frees at busy: a parked write-back may still be draining
// after it.
func (p *Port) completion(busy int64) int64 { return max(busy, p.drain) }

// traceChannels draws the batch just reserved as one span per DRAM channel
// on that channel's trace lane (channel mode, tracing only): each
// channel's share of addrs ends at its latest done entry, plus the whole
// batch's tail past its last access (XOR compression's result burst). Pure
// observation of cycles already decided.
func (p *Port) traceChannels(spans []string, addrs []uint64, done []int64, issue, end int64) {
	if spans == nil || p.mc == nil || p.mc.Trace == nil {
		return
	}
	var last [maxChannels]int64
	var blocks [maxChannels]int
	var lastAll int64
	for i, a := range addrs {
		ch := p.mem.ChannelOf(a)
		last[ch] = max(last[ch], done[i])
		lastAll = max(lastAll, done[i])
		blocks[ch]++
	}
	for ch, name := range spans {
		if blocks[ch] > 0 {
			p.mc.Trace.Span(name, "dram", tidChannel0+ch, issue, last[ch]+end-lastAll,
				map[string]any{"blocks": blocks[ch]})
		}
	}
}

// observeRequest feeds the observability layer after one request
// presented at issue, the same for every engine: the latency histograms,
// the cycle-attribution ledger and the per-request series — whether a
// shadow served it (viaShadow), the stash occupancy, the policy's
// partition level when it has one, the DRAM backlog and each channel's bus
// utilisation so far — and, when tracing, the request's lifecycle events
// (request, issue and serve spans, the forward or stash-hit instant, the
// stash-occupancy counter and the ledger lane). walk is the position-map
// walk, which fetched walkLevels blocks (both zero when it was satisfied
// on-chip, and for stash hits). The ledger's legs — presentation to serve
// start, the walk, the walk's end to the forward, forward to completion —
// are differences of cycle stamps the engine already decided, so they sum
// bit-exactly back to out.Done-issue (Ledger.RecordAccess verifies that).
// Pure reads only: attaching a collector never changes a run.
func (s *Shared) observeRequest(issue int64, addr uint32, write bool, out Outcome, viaShadow bool, walkLevels int, walk int64) {
	mc := s.mc
	if mc == nil {
		return
	}
	mc.ReqForward.Record(out.Forward - issue)
	mc.ReqComplete.Record(out.Done - issue)
	mc.Ledger.RecordAccess(out.Start-issue, walk, out.Forward-out.Start-walk,
		out.Done-out.Forward, out.Done-issue)
	hit := 0.0
	if viaShadow {
		hit = 1
	}
	occ := s.st.Snapshot()
	mc.Observe("shadow_hit_rate", issue, hit)
	mc.Observe("stash_occupancy", issue, float64(occ.Real+occ.Shadow))
	if pol, ok := s.policy.(interface{ Partition() int }); ok {
		mc.Observe("partition", issue, float64(pol.Partition()))
	}
	mc.Observe("dram_backlog", issue, float64(s.mem.Backlog(issue)))
	if issue > 0 {
		for ch, name := range s.chanSeries {
			mc.Observe(name, issue, float64(s.mem.ChannelBusy(ch))/float64(issue))
		}
	}

	tr := mc.Trace
	if tr == nil {
		return
	}
	id := s.stats.Requests
	tr.Span("request", "oram", tidRequest, issue, out.Done,
		map[string]any{"req": id, "addr": addr, "write": write})
	tr.Instant("issue", "oram", tidRequest, issue, map[string]any{"req": id})
	tr.Span("serve", "oram", tidRequest, out.Start, out.Forward,
		map[string]any{"req": id, "via_shadow": viaShadow, "on_chip": out.OnChip})
	if walkLevels > 0 {
		tr.Span("posmap.walk", "oram", tidRequest, out.Start, out.Start+walk,
			map[string]any{"req": id, "levels": walkLevels})
	}
	switch {
	case out.StashHit:
		tr.Instant("stash.hit", "oram", tidRequest, out.Forward, map[string]any{"req": id})
	case viaShadow:
		tr.Instant("forward.shadow", "oram", tidRequest, out.Forward, map[string]any{"req": id})
	default:
		tr.Instant("forward", "oram", tidRequest, out.Forward, map[string]any{"req": id})
	}
	tr.Counter("stash", tidRequest, out.Done,
		map[string]any{"real": occ.Real, "shadow": occ.Shadow})

	// Ledger lane: the attribution legs as spans, so Perfetto shows where
	// each request's cycles went without decoding the JSON report.
	if out.Start > issue {
		tr.Span("stage.queue_wait", "ledger", tidLedger, issue, out.Start,
			map[string]any{"req": id})
	}
	if out.Done > out.Forward {
		tr.Span("stage.evict_drain", "ledger", tidLedger, out.Forward, out.Done,
			map[string]any{"req": id})
	}
	if led := mc.Ledger; led != nil {
		// Keyed by the report's stage names, the same on every engine.
		legs := make(map[string]any, 4)
		for _, st := range [...]metrics.Stage{metrics.StageQueueWait, metrics.StagePosmapWalk,
			metrics.StagePathRead, metrics.StageEvictDrain} {
			legs[st.String()] = led.StageCycles(st)
		}
		tr.Counter("ledger", tidLedger, out.Done, legs)
	}
}

// Trace lanes: requests on one Perfetto track, background work (evictions,
// timing-protection dummies) on another, in channel mode one track per DRAM
// channel (tidChannel0 + ch) carrying that channel's share of each batch,
// and the cycle-attribution stage spans on their own high-numbered track
// so they sort below the functional lanes.
const (
	tidRequest    = 0
	tidBackground = 1
	tidChannel0   = 2
	tidLedger     = 64
)

// MemStats exposes the DRAM model's counters.
func (p *Port) MemStats() dram.Stats { return p.mem.Stats() }

// MemLedger exposes the DRAM model's per-channel / per-bank cycle
// attribution (for the metrics report's ledger section).
func (p *Port) MemLedger() []dram.ChannelLedger { return p.mem.Ledger() }
