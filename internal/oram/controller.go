package oram

import (
	"fmt"

	"shadowblock/internal/crypt"
	"shadowblock/internal/rng"
	"shadowblock/internal/store"
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

	ORAMAccesses   uint64 // path reads: real, posmap, dummy and eviction
	DummyAccesses  uint64 // timing-protection dummy requests
	PMAccesses     uint64 // accesses fetching position-map blocks
	PLBWritebacks  uint64 // PLB displacements: parked posmap blocks sent back to the stash (no access of their own)
	EvictionPhases uint64 // read-write phases
	ShadowForwards uint64 // requests forwarded early from a tree shadow
	StashOverflows uint64
	Anomalies      uint64 // invariant repairs (should stay zero)

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

	// Ring ORAM accounting (zero for Path): bucket reshuffles, one per S
	// reads of a bucket since its last write.
	Reshuffles uint64
}

// EventKind labels an externally visible ORAM operation.
type EventKind uint8

// Externally visible operations: the attacker sees which physical path or
// bucket is read or written and when, nothing else. The bucket events are
// Ring's reshuffles.
const (
	EvPathRead EventKind = iota
	EvPathWrite
	EvBucketRead
	EvBucketWrite
)

// Event is one externally visible operation, recorded for the security
// tests' trace comparison. Leaf is the path's leaf, or for a bucket event
// the bucket's index.
type Event struct {
	Kind  EventKind
	Leaf  uint32
	Start int64
}

// Controller is one ORAM instance of the Path engine: its tree store and
// payloads over the engine skeleton it embeds (Shared: memory port, stash,
// counters, position map and the request driver). A request goes through
// Shared.Request, whose read and eviction steps are the engine stage
// files' (engine.go, pathread.go, forward.go, stashupdate.go, evict.go):
// one stage sequence serves every configuration.
type Controller struct {
	*Shared

	store   *treeStore
	readOut []byte // where an in-flight ReadBlock wants its payload copied

	// Scratch buffer (the controller is single-threaded by design: it
	// models serial hardware).
	pathBuf []int
}

// New builds and initialises a controller: every block of the unified
// address space receives a random label and is placed in the tree (or the
// stash when its path is full), as after an oblivious initialisation pass.
func New(cfg Config, policy DupPolicy) (*Controller, error) {
	c := &Controller{}
	var err error
	if c.Shared, err = NewShared(cfg, cfg.Z, policy, rng.NewXoshiro(cfg.Seed*0xc2b2ae35+3),
		rng.NewXoshiro(cfg.Seed*0x9e3779b9+1), rng.NewXoshiro(cfg.Seed*0x85ebca6b+2), cfg.A, c.read, c.evict); err != nil {
		return nil, err
	}

	// Functional mode keeps the sealed bucket contents in a pluggable
	// storage backend; the in-memory one is the default. Timing-only
	// simulations store no payloads, so they carry no backend at all.
	var back store.Backend
	if cfg.Functional {
		back = cfg.Store
		if back == nil {
			back = store.NewMem(c.geo.NumBuckets(), cfg.Z)
		}
		key := make([]byte, 16)
		sm := rng.NewSplitMix64(cfg.Seed)
		for i := range key {
			key[i] = byte(sm.Next())
		}
		eng, err := crypt.NewEngine(key)
		if err != nil {
			return nil, err
		}
		c.pl = &payloads{eng: eng, plain: cfg.BlockBytes, sealed: crypt.NonceSize + cfg.BlockBytes,
			zero: make([]byte, cfg.BlockBytes)}
		c.st.SetRelease(c.pl.put)
	}
	c.store = newTreeStore(c.geo, back, c.pl)
	c.pathBuf = make([]int, c.geo.Levels())
	// The oblivious initialisation pass, in metadata only: every block
	// starts as the zero block, which a never-written slot opens as, so the
	// backend holds nothing until the first path write (see treeStore).
	if err := c.Place(c.store.slots, cfg.Z); err != nil {
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

// BlockBytes returns the configured block size (what WriteBlock payloads
// are padded to).
func (c *Controller) BlockBytes() int { return c.cfg.BlockBytes }

// CheckInvariants runs the shared structural walker: every slot of the
// image is live.
func (c *Controller) CheckInvariants() error {
	return c.CheckTree(c.store.slots, nil)
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
	buf := c.pl.get()
	clear(buf[copy(buf, data):])
	c.pendingWrite = buf
	out := c.Request(now, addr, true)
	c.pendingWrite = nil
	return out, nil
}

// ReadBlock fetches the current contents of addr through a full ORAM read.
// The returned block is the caller's own copy. Functional mode only.
func (c *Controller) ReadBlock(now int64, addr uint32) ([]byte, Outcome) {
	if !c.cfg.Functional {
		panic("oram: ReadBlock requires functional mode")
	}
	data := make([]byte, c.cfg.BlockBytes)
	c.readOut = data
	out := c.Request(now, addr, false)
	if out.StashHit {
		c.capture(addr)
	}
	if c.readOut != nil {
		panic(fmt.Sprintf("oram: block %d produced no payload", addr))
	}
	return data, out
}

// capture copies addr's payload out of the stash into the block an
// in-flight ReadBlock returns, opening a shadow still sealed first (a nil
// payload is the zero block, which data already holds).
func (c *Controller) capture(addr uint32) {
	if c.readOut == nil {
		return
	}
	if e, ok := c.st.Lookup(addr); ok {
		copy(c.readOut, c.plain(e))
		c.readOut = nil
	}
}
