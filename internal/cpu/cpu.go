// Package cpu provides the trace-driven processor models of Table I: a
// single in-order core, and the quad-core out-of-order configuration of
// [19] approximated as multiple interleaved trace streams with bounded
// memory-level parallelism. Each core owns an L1; all cores share the L2
// (the LLC); L2 misses go to the memory system under test.
package cpu

import (
	"fmt"

	"shadowblock/internal/cache"
	"shadowblock/internal/metrics"
	"shadowblock/internal/trace"
)

// CoreMemory is the backing system (the ORAM front end or the insecure
// DRAM baseline). Issue serves a block-granularity LLC miss that core
// presented at cycle now and returns when the data reaches the core
// (forward) and when the memory system is free again (done). A memory
// system that wants to know which core each miss came from — the
// multi-requestor front end (oram.Queue) coalesces cross-core misses and
// keeps per-core latency series — reads the core index; the others ignore
// it. RunSources presents misses in deterministic (cycle, core) order: the
// scheduler always steps the core with the earliest readiness cycle,
// breaking ties toward the lowest core index, and each step's requests
// (writebacks first, then the demand miss) reach Issue in that program
// order.
type CoreMemory interface {
	Issue(now int64, core int, blockAddr uint32, write bool) (forward, done int64)
}

// Config describes the processor.
type Config struct {
	Cores int
	OOO   bool
	MLP   int // outstanding LLC misses per core (1 for in-order)

	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	LineBytes       int
	L1Latency       int64
	L2Latency       int64

	// Metrics, when set, receives the LLC miss latency distribution: each
	// core records into its own histogram and RunSources merges them at the end,
	// so the collector stays single-writer. Nil disables the probe.
	Metrics *metrics.Collector
}

// InOrder returns Table I's in-order single-core Alpha configuration.
func InOrder() Config {
	return Config{
		Cores: 1, MLP: 1,
		L1Bytes: 32 << 10, L1Ways: 2,
		L2Bytes: 1 << 20, L2Ways: 8,
		LineBytes: 64, L1Latency: 1, L2Latency: 10,
	}
}

// O3 returns the quad-core out-of-order configuration of [19]: four
// 8-way-issue cores sharing the 1 MB L2.
func O3() Config {
	return Config{
		Cores: 4, OOO: true, MLP: 8,
		L1Bytes: 32 << 10, L1Ways: 2,
		L2Bytes: 1 << 20, L2Ways: 8,
		LineBytes: 64, L1Latency: 1, L2Latency: 10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > 64:
		return fmt.Errorf("cpu: cores=%d outside [1,64]", c.Cores)
	case c.MLP < 1:
		return fmt.Errorf("cpu: MLP must be >= 1")
	case c.LineBytes < 8:
		return fmt.Errorf("cpu: line size %d too small", c.LineBytes)
	}
	return nil
}

// Result summarises one run.
type Result struct {
	Cycles     int64 // completion time of the last reference
	References uint64
	L1Hits     uint64
	L2Hits     uint64
	LLCMisses  uint64
	Writebacks uint64
}

type coreState struct {
	id          int
	src         trace.Source
	pending     trace.Access // next reference, prefetched
	hasWork     bool         // pending is valid
	ready       int64        // when the core can consider its next reference
	lastForward int64        // data-return time of the most recent miss
	outstanding []int64      // forward times of in-flight misses (OOO ring, cap MLP)
	outHead     int
	outLen      int
	l1          *cache.Cache
	miss        *metrics.Histogram // per-core miss latency; nil when metrics off
}

// fetch prefetches the core's next reference from its source.
func (c *coreState) fetch() {
	c.pending, c.hasWork = c.src.Next()
}

// step retires the core's prefetched reference against the shared L2 and
// the memory system, and returns the cycle by which its effects are fully
// visible (used to extend the run's completion time).
func (c *coreState) step(cfg Config, l2 *cache.Cache, mem CoreMemory, res *Result) int64 {
	acc := c.pending
	c.fetch()
	res.References++

	now := c.ready + int64(acc.Gap)
	if acc.Dep {
		now = max(now, c.lastForward)
	}

	lineAddr := uint64(acc.Block) * uint64(cfg.LineBytes)
	if acc.NonTemporal {
		// Non-temporal accesses probe the caches but never allocate.
		if c.l1.Hit(lineAddr) {
			res.L1Hits++
			c.ready = now + cfg.L1Latency
			return c.ready
		}
		now += cfg.L1Latency
		if l2.Hit(lineAddr) {
			res.L2Hits++
			c.ready = now + cfg.L2Latency
			return c.ready
		}
		now += cfg.L2Latency
		res.LLCMisses++
	} else {
		hit, l1Victim, l1Dirty, l1Evicted := c.l1.Access(lineAddr, acc.Write)
		if hit {
			res.L1Hits++
			c.ready = now + cfg.L1Latency
			return c.ready
		}
		now += cfg.L1Latency
		// Dirty L1 victims write back into the L2 behind the demand
		// access; a dirty line they displace continues to memory. The
		// core never stalls on this drain.
		installVictim := func() {
			if !l1Evicted || !l1Dirty {
				return
			}
			if _, v2, d2, e2 := l2.Access(l1Victim, true); e2 && d2 {
				res.Writebacks++
				mem.Issue(now, c.id, uint32(v2/uint64(cfg.LineBytes)), true)
			}
		}
		hit, victim, dirty, evicted := l2.Access(lineAddr, acc.Write)
		if hit {
			res.L2Hits++
			installVictim()
			c.ready = now + cfg.L2Latency
			return c.ready
		}
		now += cfg.L2Latency
		res.LLCMisses++
		if evicted && dirty {
			// Dirty LLC victims flow back to memory as write requests;
			// the core does not stall on them but the memory system is
			// busy.
			res.Writebacks++
			mem.Issue(now, c.id, uint32(victim/uint64(cfg.LineBytes)), true)
		}
		installVictim()
	}

	if cfg.OOO {
		// Bounded MLP: wait for the oldest miss when the window is full.
		// The window is a fixed ring — slicing-and-appending would
		// reallocate a fresh backing array every MLP misses.
		if c.outLen >= cfg.MLP {
			now = max(now, c.outstanding[c.outHead])
			c.outHead++
			if c.outHead == cfg.MLP {
				c.outHead = 0
			}
			c.outLen--
		}
		forward, _ := mem.Issue(now, c.id, acc.Block, acc.Write)
		c.miss.Record(forward - now)
		tail := c.outHead + c.outLen
		if tail >= cfg.MLP {
			tail -= cfg.MLP
		}
		c.outstanding[tail] = forward
		c.outLen++
		c.lastForward = forward
		c.ready = now // issue more work while the miss is in flight
		return forward
	}
	forward, _ := mem.Issue(now, c.id, acc.Block, acc.Write)
	c.miss.Record(forward - now)
	c.lastForward = forward
	c.ready = forward
	return forward
}

// coreLess is the scheduler's arbitration order: earliest ready cycle
// first, lowest core index on ties — exactly the order the documented
// (cycle, core) request stream requires.
func coreLess(a, b *coreState) bool {
	return a.ready < b.ready || (a.ready == b.ready && a.id < b.id)
}

// siftDown restores the min-heap property at index i.
func siftDown(h []*coreState, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && coreLess(h[r], h[l]) {
			m = r
		}
		if !coreLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// RunSources plays one reference source per core against mem and returns
// aggregate counters. Cores interleave by readiness — the scheduler steps
// whichever core is ready earliest, ties to the lowest core index — so the
// memory system sees a deterministic (cycle, core)-ordered request stream
// and serialises or coalesces the misses itself.
//
// The scheduler keeps the runnable cores in an index min-heap keyed on
// (ready, core index): each step peeks the root, advances that core, and
// re-sinks it (or removes it when its source is dry) — O(log cores) per
// reference where the previous linear scan was O(cores). The heap's
// comparator is the scan's strict-< arbitration, so the request stream is
// bit-identical (TestMultiCoreDeterministic and the serial goldens pin it).
func RunSources(cfg Config, srcs []trace.Source, mem CoreMemory) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(srcs) != cfg.Cores {
		return Result{}, fmt.Errorf("cpu: %d trace sources for %d cores", len(srcs), cfg.Cores)
	}
	l2, err := cache.New(cfg.L2Bytes, cfg.LineBytes, cfg.L2Ways)
	if err != nil {
		return Result{}, err
	}
	cores := make([]*coreState, cfg.Cores)
	for i := range cores {
		l1, err := cache.New(cfg.L1Bytes, cfg.LineBytes, cfg.L1Ways)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &coreState{id: i, src: srcs[i], l1: l1, outstanding: make([]int64, cfg.MLP)}
		cores[i].fetch()
		if cfg.Metrics != nil {
			cores[i].miss = metrics.NewHistogram()
		}
	}

	h := make([]*coreState, 0, cfg.Cores)
	for _, cs := range cores {
		if cs.hasWork {
			h = append(h, cs)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	var res Result
	var last int64
	for len(h) > 0 {
		c := h[0]
		last = max(last, c.step(cfg, l2, mem, &res))
		if !c.hasWork {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	// Drain outstanding misses.
	for _, cs := range cores {
		for k := 0; k < cs.outLen; k++ {
			i := cs.outHead + k
			if i >= cfg.MLP {
				i -= cfg.MLP
			}
			last = max(last, cs.outstanding[i])
		}
	}
	if cfg.Metrics != nil {
		for _, cs := range cores {
			cfg.Metrics.MissLatency.Merge(cs.miss)
		}
	}
	res.Cycles = last
	return res, nil
}
