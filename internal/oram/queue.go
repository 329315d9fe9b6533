package oram

import (
	"fmt"
	"slices"
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
//   - Coalescing (Issue, the simulator's timing-only path): a secondary
//     miss on an address whose primary miss is still in flight (its data
//     has not yet forwarded) attaches to the existing MSHR entry and
//     shares its data-return cycle instead of launching a second ORAM
//     access. Without this, the synchronous timing model would hand the
//     secondary core an instant stash hit on data that is physically
//     still in DRAM. Functional Read and Write never coalesce and open
//     no entry.
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
}

// Functional is implemented by engines that store real payloads: the
// operations Queue.Read and Queue.Write serve through. Both require the
// engine to have been built in functional mode, and each is one full
// access: nothing else reaches the engine's storage.
type Functional interface {
	ReadBlock(now int64, addr uint32) ([]byte, Outcome)
	WriteBlock(now int64, addr uint32, data []byte) (Outcome, error)
}

// livePeriod is how many served presentations pass between published live
// reports: frequent enough that /debug/shadow tracks a run, rare enough
// that building the report stays off the hot path.
const livePeriod = 256

// mshr is one in-flight miss: the address it fetches and when its data
// forwards / its triggered work completes.
type mshr struct {
	addr    uint32
	forward int64
	done    int64
}

// QueueStats counts the front end's traffic.
type QueueStats struct {
	Issued    uint64 // requests that reached the memory system
	OnChip    uint64 // served by the controller's stash, no MSHR needed
	Coalesced uint64 // secondary misses attached to an in-flight MSHR
	MaxDepth  int    // high-water mark of in-flight MSHRs (Issue traffic only)
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

// Issue presents core's LLC miss at cycle now and returns when the data
// forwards and when the triggered work completes. A secondary miss on an
// in-flight address coalesces onto its MSHR; everything else reaches the
// shared controller in presentation order.
func (q *Queue) Issue(now int64, core int, addr uint32, write bool) (forward, done int64) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)

	if e := q.coalesce(now, core, addr); e != nil {
		return e.forward, e.done
	}

	out := q.eng.Request(now, addr, write)
	if !out.StashHit {
		// The miss occupies the memory system until its data forwards:
		// later misses on addr coalesce onto it.
		q.live = append(q.live, mshr{addr: addr, forward: out.Forward, done: out.Done})
		q.stats.MaxDepth = max(q.stats.MaxDepth, len(q.live))
	}
	q.served(now, core, out)
	return out.Forward, out.Done
}

// Read serves a functional GET through the front end and returns the
// block's current plaintext. Functional requests never coalesce: the
// engine serves each in presentation order, so a re-reference of a block
// still on chip is an ordinary stash hit, and reads see writes in
// presentation order. Functional mode only.
func (q *Queue) Read(now int64, core int, addr uint32) ([]byte, Outcome) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()

	data, out := q.functional().ReadBlock(now, addr)
	q.served(now, core, out)
	return data, out
}

// Write serves a functional PUT through the front end: one full access
// that installs the new payload and supersedes the tree copy. Oversized
// payloads error before any state changes. Functional mode only.
func (q *Queue) Write(now int64, core int, addr uint32, data []byte) (Outcome, error) {
	q.checkCore(core)
	q.mu.Lock()
	defer q.mu.Unlock()

	out, err := q.functional().WriteBlock(now, addr, data)
	if err != nil {
		return Outcome{}, err
	}
	q.served(now, core, out)
	return out, nil
}

func (q *Queue) checkCore(core int) {
	if core < 0 || core >= q.cores {
		panic(fmt.Sprintf("oram: core %d outside [0,%d)", core, q.cores))
	}
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

// served counts a served request and observes its latency (callers hold
// q.mu): a stash hit never occupied the memory system.
func (q *Queue) served(now int64, core int, out Outcome) {
	if out.StashHit {
		q.stats.OnChip++
		q.mc.Count("queue.onchip", 1)
	} else {
		q.stats.Issued++
		q.mc.Count("queue.issued", 1)
	}
	q.observe(now, core, out.Forward-now)
}

// prune retires entries whose data has forwarded by cycle now. Retired
// lines live in the stash (or the tree after eviction), so the controller
// serves re-references to them directly.
func (q *Queue) prune(now int64) {
	q.live = slices.DeleteFunc(q.live, func(e mshr) bool { return e.forward <= now })
}

// observe records the per-core latency sample and the queue depth, and
// every livePeriod presentations publishes the collector's report for
// /debug/shadow. Pure reads of decided timing: attaching a collector never
// changes a run.
func (q *Queue) observe(now int64, core int, lat int64) {
	if q.mc == nil {
		return
	}
	q.mc.Observe(q.coreSeries[core], now, float64(lat))
	q.mc.Observe("queue_depth", now, float64(len(q.live)))
	if (q.stats.Issued+q.stats.OnChip+q.stats.Coalesced)%livePeriod == 0 {
		q.mc.Publish(now, q.eng.Name())
	}
}
