package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/cache"
	"shadowblock/internal/crypt"
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// Outcome reports the timing of one LLC request through the ORAM.
type Outcome struct {
	Start   int64 // cycle the controller began serving (slot-aligned)
	Forward int64 // cycle the requested data reached the LLC
	Done    int64 // cycle the controller finished all triggered work
	// StashHit: served entirely on-chip, no ORAM access.
	StashHit bool
	// OnChip: the data came from on-chip state (stash, or a block — real or
	// shadow — resident in the treetop cache). This is Fig. 16's hit metric.
	OnChip bool
}

// Stats accumulates controller-level counters.
type Stats struct {
	Requests        uint64 // LLC requests presented
	StashHits       uint64 // served by a resident real block
	ShadowStashHits uint64 // served by a resident shadow block (HD-Dup payoff)
	OnChipHits      uint64 // Fig. 16 numerator

	ORAMAccesses   uint64 // path reads (read-only phases), real or dummy
	DummyAccesses  uint64 // timing-protection dummy requests
	PMAccesses     uint64 // accesses fetching position-map blocks
	PLBWritebacks  uint64 // accesses re-inserting evicted PLB entries
	EvictionPhases uint64 // read-write phases
	ShadowForwards uint64 // requests forwarded early from a tree shadow
	StashOverflows uint64
	Anomalies      uint64 // invariant repairs (should stay zero)

	// Depth accounting over real (data and posmap) accesses: the level of
	// the copy that served the forward, the level of the real copy, and
	// the cycles from access start to forward / to completion. These drive
	// the ablation experiments and diagnose how much earlier shadows make
	// the intended data available.
	FwdSamples   uint64
	SumFwdLevel  uint64
	SumRealLevel uint64
	SumFwdCycles uint64
	SumEndCycles uint64

	DataAccessCycles int64 // sum over real requests of Done-Start (eq. 1)

	// Pipelined-engine accounting: path reads that began while a previous
	// eviction writeback was still draining, and the total overlap cycles
	// reclaimed that way. Both stay zero with Pipeline off.
	PipelinedReads uint64
	OverlapCycles  uint64

	// Decoupled-writeback accounting (all zero with WBDecoupled off):
	// per-bucket write ops queued at evictions, ops the scheduler slotted
	// into idle bank windows, ops force-retired (bucket about to be read
	// again, or the starvation bound), ops flushed by Drain at end of run,
	// total cycles ops sat deferred in the queue, and the queue's occupancy
	// high-water mark.
	WBEnqueued       uint64
	WBSlotted        uint64
	WBForced         uint64
	WBFlushed        uint64
	WBDeferralCycles uint64
	WBMaxPending     int

	// Ring ORAM accounting (zero for Path, as the WB block is for Ring):
	// early reshuffles of exhausted buckets, stale shadows dropped when
	// collected.
	Reshuffles   uint64
	StaleShadows uint64
}

// EventKind labels an externally visible ORAM operation.
type EventKind uint8

// Externally visible operations: the attacker sees which physical path is
// read or written and when, nothing else.
const (
	EvPathRead EventKind = iota
	EvPathWrite
)

// Event is one externally visible operation, recorded for the security
// tests' trace comparison.
type Event struct {
	Kind  EventKind
	Leaf  uint32
	Start int64
}

// Controller is one ORAM instance: tree image, stash, position map, PLB,
// DRAM timing model and (optionally) a duplication policy. The request
// path itself lives in the engine stage files (engine.go, posmap.go,
// pathread.go, forward.go, stashupdate.go, evict.go): one stage sequence
// serves every configuration.
type Controller struct {
	cfg    Config
	geo    tree.Geometry
	layout tree.Layout
	mem    *dram.Memory
	store  *treeStore
	st     *stash.Stash
	pos    *posmap.Store
	plb    *cache.Cache
	policy DupPolicy
	engine *crypt.Engine

	readOp dram.Op // path-read op: off-bus under XOR compression

	// plbBlocks holds the posmap blocks whose data lives in the PLB's
	// SRAM: they are neither in the tree nor in the stash while resident.
	plbBlocks map[uint32]block.Meta

	dummyRNG *rng.Xoshiro

	// sh is the code and state shared with every other engine: placement,
	// request head and clock (sh.Busy is the cycle the read/decrypt
	// datapath frees), remap, invariant walker.
	sh Shared

	accessCount uint64 // read-only accesses since start (for A)
	evictCount  uint64 // reverse-lex eviction counter

	// wbDrain is the completion cycle of the last eviction writeback still
	// draining into DRAM. The serial engine folds it into sh.Busy; the
	// pipelined engine lets sh.Busy (the read/decrypt datapath) free at
	// the end of the eviction's path read and tracks the writeback here,
	// so the next path read may overlap it. The decoupled scheduler
	// max-updates it with every retired write op's completion.
	wbDrain int64

	// wb is the decoupled writeback scheduler's queue state; nil unless
	// cfg.WBDecoupled (every hot-path hook checks the nil, so the coupled
	// engines pay one predictable branch at most).
	wb *wbState

	stats        Stats
	observer     func(Event)
	mc           *metrics.Collector
	partitionOf  func() int // policy's partition level, when it has one
	pendingWrite []byte     // payload for an in-flight WriteBlock
	zeroBlock    []byte     // read-only all-zero plaintext (functional mode)
	lastRead     []byte     // payload captured by the last functional access

	// Scratch buffers (the controller is single-threaded by design: it
	// models serial hardware).
	pathBuf    []int
	chainBuf   []uint32
	addrBuf    []uint64
	doneBuf    []int64
	poolsBuf   [][]uint32
	placedData map[uint32][]byte

	// Channel mode (cfg.Channels > 0): precomputed per-channel span/series
	// names, so observation never formats strings. Nil otherwise.
	chanSpanRead  []string
	chanSpanWrite []string
	chanSeries    []string
}

// New builds and initialises a controller: every block of the unified
// address space receives a random label and is placed in the tree (or the
// stash when its path is full), as after an oblivious initialisation pass.
func New(cfg Config, policy DupPolicy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = NopPolicy{}
	}
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		return nil, err
	}

	var hier posmap.Hierarchy
	if cfg.DirectPosMap {
		hier = posmap.Direct(cfg.NumDataBlocks())
	} else {
		hier, err = posmap.NewHierarchy(cfg.NumDataBlocks(), cfg.PosmapFanout, cfg.OnChipPosMapEntries)
		if err != nil {
			return nil, err
		}
	}
	if hier.TotalBlocks() > block.MaxAddr {
		return nil, fmt.Errorf("oram: %d blocks exceed the packed address space", hier.TotalBlocks())
	}

	// Channel mode swaps in the channel-interleaved layout and sizes the
	// memory system to match; the legacy layout leaves DRAM.Channels alone
	// and lets the plain row interleaving place subtrees.
	dcfg := cfg.DRAM
	layout := tree.NewLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes)
	if cfg.Channels > 0 {
		dcfg.Channels = cfg.Channels
		layout, err = tree.NewChannelLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes, cfg.Channels)
		if err != nil {
			return nil, err
		}
	}
	mem, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	// Functional mode keeps the sealed bucket contents in a pluggable
	// storage backend; the in-memory one is the default. Timing-only
	// simulations store no payloads, so they carry no backend at all.
	var back store.Backend
	if cfg.Functional {
		back = cfg.Store
		if back == nil {
			back = store.NewMem(geo.NumBuckets(), cfg.Z)
		}
	}
	c := &Controller{
		cfg:        cfg,
		geo:        geo,
		layout:     layout,
		mem:        mem,
		store:      newTreeStore(geo, back, crypt.NonceSize+cfg.BlockBytes),
		st:         stash.New(cfg.StashCapacity),
		policy:     policy,
		readOp:     dram.OpRead,
		dummyRNG:   rng.NewXoshiro(cfg.Seed*0x85ebca6b + 2),
		pathBuf:    make([]int, geo.Levels()),
		chainBuf:   make([]uint32, 0, 8),
		addrBuf:    make([]uint64, 0, geo.PathLen()),
		doneBuf:    make([]int64, geo.PathLen()),
		poolsBuf:   make([][]uint32, geo.Levels()),
		placedData: make(map[uint32][]byte),
	}
	if cfg.Channels > 0 {
		c.chanSpanRead = make([]string, cfg.Channels)
		c.chanSpanWrite = make([]string, cfg.Channels)
		c.chanSeries = make([]string, cfg.Channels)
		for ch := 0; ch < cfg.Channels; ch++ {
			c.chanSpanRead[ch] = fmt.Sprintf("path.read.c%d", ch)
			c.chanSpanWrite[ch] = fmt.Sprintf("path.write.c%d", ch)
			c.chanSeries[ch] = fmt.Sprintf("dram_util_c%d", ch)
		}
	}
	if cfg.XOR {
		c.readOp = dram.OpReadOffBus
	}
	if cfg.WBDecoupled {
		c.initWriteback()
	}
	// A policy that binds to the engine's geometry and stash is bound here,
	// the one place both exist and the policy has not yet been called.
	if b, ok := policy.(GeometryBinder); ok {
		if err := b.BindGeometry(geo, c.st); err != nil {
			return nil, err
		}
	}
	c.pos = posmap.NewStore(hier, geo.NumLeaves(), rng.NewXoshiro(cfg.Seed*0xc2b2ae35+3))
	c.sh = NewShared(&c.cfg, geo, c.st, c.pos, policy, &c.stats,
		rng.NewXoshiro(cfg.Seed*0x9e3779b9+1), c.issueDummy)
	if !cfg.DirectPosMap {
		entries := cfg.PLBBytes / cfg.BlockBytes
		plb, err := cache.New(entries, 1, cfg.PLBWays)
		if err != nil {
			return nil, fmt.Errorf("oram: PLB geometry: %w", err)
		}
		c.plb = plb
		c.plbBlocks = make(map[uint32]block.Meta, entries)
	}
	if cfg.Functional {
		key := make([]byte, 16)
		sm := rng.NewSplitMix64(cfg.Seed)
		for i := range key {
			key[i] = byte(sm.Next())
		}
		c.engine, err = crypt.NewEngine(key)
		if err != nil {
			return nil, err
		}
		c.zeroBlock = make([]byte, cfg.BlockBytes)
	}
	if err := c.initialPlacement(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config, policy DupPolicy) *Controller {
	c, err := New(cfg, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// initialPlacement fills the tree respecting the path invariant (the
// shared placement pass). Every block starts as zeros, so in functional
// mode the external image is a fresh seal of the zero block in every slot,
// written one bucket at a time in ascending order.
func (c *Controller) initialPlacement() error {
	if err := c.sh.Place(c.store.slots, c.geo.Z); err != nil {
		return err
	}
	if c.engine != nil {
		bucket := c.store.stage[:c.geo.Z]
		for b := 0; b < c.geo.NumBuckets(); b++ {
			for _, w := range bucket {
				c.engine.Seal(w, c.zeroBlock)
			}
			c.store.writeBucket(b, bucket)
		}
	}
	return nil
}

// place installs m in bucket's slot s, which is slot i of the staged path,
// and in functional mode seals data (nil stands for the zero block) into
// the slot's stage window.
func (c *Controller) place(i, bucket, s int, m block.Meta, data []byte) {
	c.store.set(bucket, s, m)
	if c.engine == nil {
		return
	}
	if data == nil {
		data = c.zeroBlock
	}
	c.engine.Seal(c.store.stage[i], data)
}

// open decrypts one sealed slot into a fresh plaintext block: what it
// returns is retained by the stash or handed to the caller, while sealed
// is a window of the stage or a backend view. Functional mode only.
func (c *Controller) open(sealed []byte) []byte {
	pt := make([]byte, c.cfg.BlockBytes)
	if err := c.engine.Open(pt, sealed); err != nil {
		panic(fmt.Sprintf("oram: corrupt ciphertext: %v", err))
	}
	return pt
}

// SetObserver registers a callback receiving every externally visible
// operation (path reads and writes).
func (c *Controller) SetObserver(fn func(Event)) { c.observer = fn }

// SetMetrics attaches an observability collector (nil detaches it). The
// collector only reads timing and occupancy state, so attaching one never
// changes simulated behaviour.
func (c *Controller) SetMetrics(mc *metrics.Collector) {
	c.mc = mc
	c.partitionOf = nil
	if p, ok := c.policy.(interface{ Partition() int }); ok && mc != nil {
		c.partitionOf = p.Partition
	}
}

// Stats returns a copy of the accumulated counters.
func (c *Controller) Stats() Stats { return c.stats }

// MemStats exposes the DRAM model's counters (for the energy model).
func (c *Controller) MemStats() dram.Stats { return c.mem.Stats() }

// StashMaxReal returns the stash's real-block high-water mark (for the
// Rule-3 overflow-equivalence tests).
func (c *Controller) StashMaxReal() int { return c.st.MaxRealOccupancy() }

// Geometry exposes the tree geometry.
func (c *Controller) Geometry() tree.Geometry { return c.geo }

// Stash exposes the stash (the core package's policy inspects shadow
// candidates through it).
func (c *Controller) Stash() *stash.Stash { return c.st }

// NumDataBlocks returns the data address space size.
func (c *Controller) NumDataBlocks() int { return c.pos.Hierarchy().NumData() }

// BlockBytes returns the configured block size (what WriteBlock payloads
// are padded to).
func (c *Controller) BlockBytes() int { return c.cfg.BlockBytes }

// BusyUntil returns the cycle at which the controller's read/decrypt
// datapath frees. With Pipeline on, an eviction writeback may still be
// draining into DRAM after this; completionCycle/Drain include it.
func (c *Controller) BusyUntil() int64 { return c.sh.Busy }

// completionCycle is the cycle at which every piece of triggered work —
// including a still-draining pipelined writeback — is finished.
func (c *Controller) completionCycle() int64 { return max(c.sh.Busy, c.wbDrain) }

// Drain returns the cycle at which all work completes. With the decoupled
// writeback scheduler on, any write ops still parked in the queue are
// flushed to DRAM first (there will be no further path read to slot them
// around); the coupled engines have nothing pending and Drain is a pure
// query. Idempotent either way.
func (c *Controller) Drain() int64 {
	c.wbFlush()
	return c.completionCycle()
}

// WriteBlock stores data (zero padded to the block size) at addr through a
// full ORAM write. Data longer than the block is an error — it is never
// silently truncated. Functional mode only.
func (c *Controller) WriteBlock(now int64, addr uint32, data []byte) (Outcome, error) {
	if !c.cfg.Functional {
		panic("oram: WriteBlock requires functional mode")
	}
	if len(data) > c.cfg.BlockBytes {
		return Outcome{}, fmt.Errorf("oram: payload of %d bytes exceeds the %d-byte block", len(data), c.cfg.BlockBytes)
	}
	buf := make([]byte, c.cfg.BlockBytes)
	copy(buf, data)
	c.pendingWrite = buf
	out := c.Request(now, addr, true)
	c.pendingWrite = nil
	return out, nil
}

// ReadBlock fetches the current contents of addr through a full ORAM read.
// Functional mode only.
func (c *Controller) ReadBlock(now int64, addr uint32) ([]byte, Outcome) {
	if !c.cfg.Functional {
		panic("oram: ReadBlock requires functional mode")
	}
	c.lastRead = nil
	out := c.Request(now, addr, false)
	src := c.lastRead
	if out.StashHit {
		e, ok := c.st.Lookup(addr)
		if !ok {
			panic(fmt.Sprintf("oram: block %d absent after stash hit", addr))
		}
		src = e.Data
	}
	if src == nil {
		panic(fmt.Sprintf("oram: block %d produced no payload", addr))
	}
	data := make([]byte, len(src))
	copy(data, src)
	return data, out
}

// PeekBlock returns a copy of addr's current plaintext without performing
// an ORAM access: from the stash when resident, otherwise by decrypting
// the real copy on its assigned path. It exists for the front end's
// coalesced reads — the primary miss has already completed synchronously,
// so the data is on-chip or in the tree, and fetching it must not disturb
// the access sequence (nothing here consumes randomness or touches timing
// state). Functional mode only.
func (c *Controller) PeekBlock(addr uint32) ([]byte, bool) {
	if !c.cfg.Functional {
		panic("oram: PeekBlock requires functional mode")
	}
	if int(addr) >= c.pos.Hierarchy().NumData() {
		return nil, false
	}
	if e, ok := c.st.Lookup(addr); ok && e.Meta.Kind == block.Real {
		data := make([]byte, len(e.Data))
		copy(data, e.Data)
		return data, true
	}
	// Exactly one real copy exists and the path invariant places it on the
	// path of its current label (shadows may be stale, so only the real
	// copy is trusted).
	label := c.pos.Label(addr)
	for lv := 0; lv <= c.geo.L; lv++ {
		bucket := c.geo.BucketAt(label, lv)
		for s := 0; s < c.geo.Z; s++ {
			if m := c.store.get(bucket, s); m.Kind == block.Real && m.Addr == addr {
				return c.open(c.store.readBucket(bucket)[s]), true
			}
		}
	}
	return nil, false
}

// ledger returns the collector's cycle-attribution ledger (nil when
// metrics are detached or the ledger is disabled; a nil ledger no-ops).
func (c *Controller) ledger() *metrics.Ledger {
	if c.mc == nil {
		return nil
	}
	return c.mc.Ledger
}

// observeRequest feeds the observability layer after one LLC request:
// latency histograms, epoch time-series, the cycle-attribution ledger,
// and — when tracing — the request's lifecycle events (issue span, serve
// span, forward/stash-hit instant, stash-occupancy counter).
// pmStart/pmEnd/pmN describe the position-map walk (pmN = 0 when it was
// satisfied on-chip or for stash hits). Pure reads only: the simulated
// timing is already decided.
func (c *Controller) observeRequest(issue int64, addr uint32, write bool, out Outcome, viaShadow bool, pmStart, pmEnd int64, pmN int) {
	mc := c.mc
	RecordRequest(mc, issue, out, pmEnd-pmStart)
	hit := 0.0
	if viaShadow {
		hit = 1
	}
	occ := c.st.Snapshot()
	mc.Observe("shadow_hit_rate", issue, hit)
	mc.Observe("stash_occupancy", issue, float64(occ.Real+occ.Shadow))
	if c.partitionOf != nil {
		mc.Observe("partition", issue, float64(c.partitionOf()))
	}
	mc.Observe("dram_backlog", issue, float64(c.mem.Backlog(issue)))
	// Channel mode: per-channel bus utilisation so far (reserved burst
	// cycles over elapsed time) — the signal that shows whether the
	// interleaved layout really balances the path across channels.
	if c.chanSeries != nil && issue > 0 {
		for ch, name := range c.chanSeries {
			mc.Observe(name, issue, float64(c.mem.ChannelBusy(ch))/float64(issue))
		}
	}
	tr := mc.Trace
	if tr == nil {
		return
	}
	id := c.stats.Requests
	tr.Span("request", "oram", tidRequest, issue, out.Done,
		map[string]any{"req": id, "addr": addr, "write": write})
	tr.Instant("issue", "oram", tidRequest, issue, map[string]any{"req": id})
	tr.Span("serve", "oram", tidRequest, out.Start, out.Forward,
		map[string]any{"req": id, "via_shadow": viaShadow, "on_chip": out.OnChip})
	if pmN > 0 {
		tr.Span("posmap.walk", "oram", tidRequest, pmStart, pmEnd,
			map[string]any{"req": id, "levels": pmN})
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
		tr.Counter("ledger", tidLedger, out.Done, map[string]any{
			"queue_wait":  led.StageCycles(metrics.StageQueueWait),
			"posmap":      led.StageCycles(metrics.StagePosmapWalk),
			"path_read":   led.StageCycles(metrics.StagePathRead),
			"evict_drain": led.StageCycles(metrics.StageEvictDrain),
		})
	}
}

// ChannelUtil returns each DRAM channel's cumulative bus utilisation at
// cycle now (reserved burst cycles over elapsed time). Nil before cycle 1.
func (c *Controller) ChannelUtil(now int64) []float64 {
	if now <= 0 {
		return nil
	}
	out := make([]float64, c.mem.NumChannels())
	for ch := range out {
		out[ch] = float64(c.mem.ChannelBusy(ch)) / float64(now)
	}
	return out
}

// MemLedger exposes the DRAM model's per-channel / per-bank cycle
// attribution (for the metrics report's ledger section).
func (c *Controller) MemLedger() []dram.ChannelLedger { return c.mem.Ledger() }

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
