package oram

import (
	"bytes"
	"fmt"
	"sync"

	"shadowblock/internal/metrics"
)

// Queue is the multi-requestor front end: an MSHR-style table between the
// N cores of a multi-core processor and one shared ORAM engine. It
// composes against the public Engine seam, so any registered engine can
// sit behind it. The one thing an engine may offer beyond the seam,
// functional payloads, the queue discovers once, at construction, through
// the optional interface below; it never learns the engine's concrete
// type.
//
// The engine models serial hardware and serves one access at a time;
// the queue is what lets several cores share it soundly:
//
//   - Coalescing: a secondary miss on an address whose primary miss is
//     still in flight (its data has not yet forwarded) attaches to the
//     existing MSHR entry and shares its data-return cycle instead of
//     launching a second ORAM access. Without this, the synchronous
//     timing model would hand the secondary core an instant stash hit on
//     data that is physically still in DRAM.
//   - Arbitration: the driving loop (cpu.RunSources) presents requests in
//     deterministic (cycle, core) order — ties at the same readiness
//     cycle resolve to the lowest core index — and the queue serves
//     strictly in presentation order. Queueing therefore reorders only
//     *when* a request issues relative to other cores; the DRAM touch
//     pattern of each individual access is the engine's and never
//     changes (see TestQueueTouchSequenceAcrossCores).
//
// A single in-order core never finds a live entry (it blocks on its own
// forwards), so single-core runs through the queue are cycle-identical to
// driving the controller directly.
//
// Issue is safe for concurrent callers (the table and the controller are
// guarded by one lock), so race-detector tests can hammer a shared queue;
// the simulator itself presents requests from one goroutine.
type Queue struct {
	mu    sync.Mutex
	eng   Engine
	fn    Functional // nil when eng stores no payloads
	cores int

	live []mshr // in-flight entries, pruned as their forwards pass

	stats QueueStats

	mc         *metrics.Collector
	coreSeries []string // req_latency.coreN, precomputed
	observed   uint64   // samples since start, drives live-snapshot cadence
}

// Functional is implemented by engines that store real payloads: the
// operations Queue.Read and Queue.Write serve through, and the block size
// a write is zero padded to. Both operations require the engine to have
// been built in functional mode, and each is one full access: nothing else
// reaches the engine's storage.
type Functional interface {
	ReadBlock(now int64, addr uint32) ([]byte, Outcome)
	WriteBlock(now int64, addr uint32, data []byte) (Outcome, error)
	BlockBytes() int
}

// livePeriod is how many latency observations pass between published live
// snapshots: frequent enough that /debug/shadow tracks a run, rare enough
// that snapshot allocation stays off the hot path.
const livePeriod = 256

// mshr is one in-flight miss: the address it fetches, when its data
// forwards / its triggered work completes, and, for functional accesses,
// the block's plaintext as of the latest presentation. Issue leaves data
// nil.
type mshr struct {
	addr    uint32
	forward int64
	done    int64
	data    []byte
}

// QueueStats counts the front end's traffic.
type QueueStats struct {
	Issued    uint64 // requests that opened an MSHR (reached the memory system)
	OnChip    uint64 // served by the controller's stash, no MSHR needed
	Coalesced uint64 // secondary misses attached to an in-flight MSHR
	MaxDepth  int    // high-water mark of in-flight MSHRs
}

// NewQueue builds the front end for cores requestors sharing eng.
func NewQueue(eng Engine, cores int) *Queue {
	if cores < 1 {
		panic(fmt.Sprintf("oram: queue needs >= 1 core, got %d", cores))
	}
	q := &Queue{eng: eng, cores: cores}
	q.fn, _ = eng.(Functional)
	return q
}

// SetMetrics attaches an observability collector (nil detaches): per-core
// request latency series (req_latency.coreN) and the queue-depth series.
// Observation never changes simulated timing.
func (q *Queue) SetMetrics(mc *metrics.Collector) {
	q.mc = mc
	q.coreSeries = nil
	if mc != nil {
		q.coreSeries = make([]string, q.cores)
		for i := range q.coreSeries {
			q.coreSeries[i] = fmt.Sprintf("req_latency.core%d", i)
		}
	}
}

// Engine exposes the shared engine behind the queue.
func (q *Queue) Engine() Engine { return q.eng }

// functional returns the engine's payload operations.
func (q *Queue) functional() Functional {
	if q.fn == nil {
		panic(fmt.Sprintf("oram: engine %q has no functional mode", q.eng.Name()))
	}
	return q.fn
}

// Stats returns a copy of the front end's counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Depth returns the number of MSHRs in flight at cycle now.
func (q *Queue) Depth(now int64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)
	return len(q.live)
}

// Issue presents core's LLC miss at cycle now and returns when the data
// forwards and when the triggered work completes. A secondary miss on an
// in-flight address coalesces onto its MSHR; everything else reaches the
// shared controller in presentation order.
func (q *Queue) Issue(now int64, core int, addr uint32, write bool) (forward, done int64) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.enter(now)

	if e := q.coalesce(now, core, addr); e != nil {
		return e.forward, e.done
	}

	out := q.eng.Request(now, addr, write)
	q.admit(now, core, addr, out)
	return out.Forward, out.Done
}

// Read serves a functional GET through the front end: timing flows exactly
// as Issue's (coalescing included), and the block's current plaintext
// comes back with it. A read that coalesces onto an in-flight MSHR gets a
// copy of the payload the entry holds — the primary miss's data, or the
// latest write's since — so it costs no access and no storage traffic;
// only its return *cycle* is the entry's. Functional mode only.
func (q *Queue) Read(now int64, core int, addr uint32) ([]byte, Outcome) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.enter(now)

	fn := q.functional()
	if e := q.coalesce(now, core, addr); e != nil {
		if e.data == nil {
			panic(fmt.Sprintf("oram: Read of block %d coalesced onto an Issue miss, which carries no payload", addr))
		}
		return bytes.Clone(e.data), Outcome{Start: now, Forward: e.forward, Done: e.done}
	}

	data, out := fn.ReadBlock(now, addr)
	if e := q.admit(now, core, addr, out); e != nil {
		e.data = bytes.Clone(data)
	}
	return data, out
}

// Write serves a functional PUT through the front end. Writes never
// coalesce: the access must run in full to install the new payload and
// supersede the tree copy. The written block then becomes the payload of
// every in-flight MSHR for addr, so a later read that coalesces onto one
// opened before the write still sees it: reads see writes in presentation
// order. Oversized payloads error before any state changes. Functional
// mode only.
func (q *Queue) Write(now int64, core int, addr uint32, data []byte) (Outcome, error) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.enter(now)

	fn := q.functional()
	out, err := fn.WriteBlock(now, addr, data)
	if err != nil {
		return Outcome{}, err
	}
	q.admit(now, core, addr, out)
	var block []byte // shared by the entries: coalesced reads copy it
	for i := range q.live {
		if e := &q.live[i]; e.addr == addr {
			if block == nil {
				block = make([]byte, fn.BlockBytes())
				copy(block, data)
			}
			e.data = block
		}
	}
	return out, nil
}

func (q *Queue) checkCore(core int) {
	if core < 0 || core >= q.cores {
		panic(fmt.Sprintf("oram: core %d outside [0,%d)", core, q.cores))
	}
}

// enter is the shared presentation prologue (callers hold q.mu): retire
// MSHRs whose forwards have passed, then run the read-priority writeback
// pump.
//
// The pump: the idle gap between the last serve and this presentation
// closes now, so queued eviction writes whose banks can finish inside it
// drain first. Only writes that provably complete before `now` are
// slotted — the demand read presented here is never made to wait on one —
// and the pump never touches presentation order, so same-cycle demand
// reads still serve in (cycle, core) order. No-op for the coupled engines.
func (q *Queue) enter(now int64) {
	q.prune(now)
	q.eng.PumpWritebacks(now)
}

// coalesce attaches a presentation to an in-flight MSHR for addr, if one
// exists, recording the secondary miss; callers hold q.mu.
func (q *Queue) coalesce(now int64, core int, addr uint32) *mshr {
	for i := range q.live {
		if e := &q.live[i]; e.addr == addr && now < e.forward {
			q.stats.Coalesced++
			if q.mc != nil {
				q.mc.Count("queue.coalesced", 1)
				q.mc.Ledger.RecordCoalesced(e.forward - now)
			}
			q.observe(now, core, e.forward-now)
			return e
		}
	}
	return nil
}

// admit records a served request's outcome (callers hold q.mu): stash hits
// never occupied the memory system, everything else opens an MSHR for
// later misses to coalesce onto, which admit returns (valid until the next
// entry opens).
func (q *Queue) admit(now int64, core int, addr uint32, out Outcome) (opened *mshr) {
	if out.StashHit {
		// Served on-chip: the miss never occupied the memory system, so
		// there is nothing for a later miss to coalesce onto.
		q.stats.OnChip++
		q.mc.Count("queue.onchip", 1)
	} else {
		q.stats.Issued++
		q.mc.Count("queue.issued", 1)
		q.live = append(q.live, mshr{addr: addr, forward: out.Forward, done: out.Done})
		if len(q.live) > q.stats.MaxDepth {
			q.stats.MaxDepth = len(q.live)
		}
		opened = &q.live[len(q.live)-1]
	}
	q.observe(now, core, out.Forward-now)
	return opened
}

// prune retires entries whose data has forwarded by cycle now. Retired
// lines live in the stash (or the tree after eviction), so the controller
// serves re-references to them directly.
func (q *Queue) prune(now int64) {
	kept := q.live[:0]
	for _, e := range q.live {
		if e.forward > now {
			kept = append(kept, e)
		}
	}
	q.live = kept
}

// observe records the per-core latency sample and the queue depth, and
// periodically publishes a live snapshot for /debug/shadow. Pure reads of
// decided timing: attaching a collector never changes a run.
func (q *Queue) observe(now int64, core int, lat int64) {
	if q.mc == nil {
		return
	}
	q.mc.Observe(q.coreSeries[core], now, float64(lat))
	q.mc.Observe("queue_depth", now, float64(len(q.live)))
	q.observed++
	if q.observed%livePeriod == 0 {
		q.publishLive(now)
	}
}

// publishLive assembles the front end's view of the running simulation —
// queue state and DRAM channel utilisation — and hands it to the collector,
// which completes it with its own digests and installs it for the debug
// endpoint.
func (q *Queue) publishLive(now int64) {
	snap := &metrics.LiveSnapshot{
		Cycles:         now,
		Engine:         q.eng.Name(),
		QueueDepth:     len(q.live),
		QueueIssued:    q.stats.Issued,
		QueueOnChip:    q.stats.OnChip,
		QueueCoalesced: q.stats.Coalesced,
		ChannelUtil:    q.eng.ChannelUtil(now),
	}
	q.mc.PublishLive(snap)
}
