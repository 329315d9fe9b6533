// Package ring implements a Ring ORAM controller ([34]) with shadow-block
// support, substantiating the paper's claim that the duplication technique
// "can be applied to any other ORAMs that utilize dummy blocks" (§II-C).
//
// Ring ORAM separates reads from evictions more aggressively than Tiny
// ORAM: each bucket holds Z real slots plus S dummy slots in a secret
// per-bucket permutation, a read touches exactly ONE slot per bucket (the
// intended block in its bucket, an unread dummy elsewhere), evictions
// rewrite a reverse-lexicographic path every A reads, and a bucket whose
// dummies run out is reshuffled early.
//
// Shadow blocks slot in naturally: dummy slots written during evictions and
// reshuffles may carry copies of real blocks. When a read path crosses a
// bucket holding a *fresh* shadow of the intended block, the controller
// reads that slot instead of a random dummy — indistinguishable to the
// attacker, because slot positions are freshly permuted on every bucket
// write, but the data arrives levels earlier.
package ring

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Config is what Ring adds to an oram.Config: the bucket shape. Every
// shared axis (geometry, block size, stash, timing protection, XOR, shadow
// hits, seed, DRAM) is read from the oram.Config New receives,
// whose own Z and A describe a Path bucket and are not used here.
type Config struct {
	Z int // real slots per bucket
	S int // dummy slots per bucket
	A int // eviction rate: one EvictPath per A accesses, dummies included
}

// Classic is the classic Ring ORAM parameterisation, the shape the
// registered "ring" engine runs.
var Classic = Config{Z: 4, S: 6, A: 3}

// Validate reports bucket-shape errors; oram.Config.Validate checks the
// shared fields.
func (c Config) Validate() error {
	switch {
	case c.Z < 1 || c.S < 1:
		return fmt.Errorf("ring: Z=%d S=%d must be positive", c.Z, c.S)
	case c.Z+c.S > 16:
		return fmt.Errorf("ring: Z+S=%d exceeds the slot encoding", c.Z+c.S)
	case c.A < 1:
		return fmt.Errorf("ring: A=%d must be >= 1", c.A)
	}
	return nil
}

// Controller is the Ring ORAM state machine, and — through the methods in
// engine.go — the engine registered on the oram.Engine seam.
type Controller struct {
	// Port is the memory port every batch reaches DRAM through: the
	// pipelined, channelled and decoupled-writeback axes are its.
	*oram.Port

	cfg   oram.Config   // the shared axes
	shape Config        // Ring's bucket shape
	geo   tree.Geometry // geometry with Z+S slots per bucket (layout)
	st    *stash.Stash

	// sh is the code and state shared with the Path engine: placement,
	// the request driver and clock, the access clock (dummies and the
	// eviction schedule), position map and its walk, remap, the stash side
	// of reads and writes with the policy protocol, observer, invariant
	// walker.
	sh oram.Shared

	slots     []block.Slot // one per physical slot; labels live in sh's position map
	valid     slotSet      // slot unread since the bucket's last write
	dummiesUp []uint8      // valid non-real slots remaining per bucket

	slotRNG *rng.Xoshiro

	stats oram.Stats

	// Scratch buffers, reused so the request path never allocates.
	pathBuf  []int
	addrBuf  []uint64
	doneBuf  []int64
	picksBuf []block.Slot // what one read's chosen slots held, root to leaf
	realsBuf []block.Slot // one reshuffled bucket's real blocks
}

// New builds a Ring ORAM controller over the shared axes of cfg with the
// given bucket shape. policy may be nil (plain Ring ORAM) or a shadow-block
// policy; oram.NewShared binds one that implements oram.GeometryBinder
// (core.NewUnbound's does) to the geometry and stash built.
func New(cfg oram.Config, shape Config, policy oram.DupPolicy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	// Functional payloads and the treetop cache are Path-engine machinery
	// Ring does not (yet) share.
	switch {
	case cfg.Functional:
		return nil, fmt.Errorf("ring: engine %q does not support functional mode", EngineName)
	case cfg.TreetopLevels > 0:
		return nil, fmt.Errorf("ring: engine %q does not support treetop caching", EngineName)
	}
	geo, err := tree.NewGeometry(cfg.L, shape.Z+shape.S)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		shape:     shape,
		geo:       geo,
		st:        stash.New(cfg.StashCapacity),
		slots:     make([]block.Slot, geo.NumSlots()),
		valid:     make(slotSet, (geo.NumSlots()+63)/64),
		dummiesUp: make([]uint8, geo.NumBuckets()),
		slotRNG:   rng.NewXoshiro(cfg.Seed*0x85ebca6b + 12),
		pathBuf:   make([]int, geo.Levels()),
		addrBuf:   make([]uint64, 0, geo.PathLen()),
		doneBuf:   make([]int64, geo.PathLen()),
		picksBuf:  make([]block.Slot, 0, geo.Levels()),
		realsBuf:  make([]block.Slot, 0, shape.Z),
	}
	if c.Port, err = oram.NewPort(&c.cfg, geo, &c.stats); err != nil {
		return nil, err
	}
	if c.sh, err = oram.NewShared(c.Port, c.st, policy, rng.NewXoshiro(cfg.Seed*0x27d4eb2f+14),
		rng.NewXoshiro(cfg.Seed*0x9e3779b9+11), rng.NewXoshiro(cfg.Seed*0xc2b2ae35+13), shape.A, c.read, c.evict); err != nil {
		return nil, err
	}
	// The shared placement fills each bucket's first Z slots; every slot of
	// the fresh tree, placed or not, starts valid, the unplaced ones as
	// dummies.
	if err := c.sh.Place(c.slots, shape.Z); err != nil {
		return nil, err
	}
	for i := range c.valid {
		c.valid[i] = ^uint64(0)
	}
	for b := 0; b < geo.NumBuckets(); b++ {
		c.recountBucket(b)
	}
	return c, nil
}

// NumDataBlocks returns the data address space size.
func (c *Controller) NumDataBlocks() int { return c.cfg.NumDataBlocks() }

// SetObserver registers the externally-visible-operation callback.
func (c *Controller) SetObserver(fn func(oram.Event)) { c.sh.SetObserver(fn) }

// Drain returns the completion cycle of all issued work, after flushing
// the write-backs the memory port still holds.
func (c *Controller) Drain() int64 { return c.sh.Drain() }

// recountBucket refreshes the per-bucket valid-dummy count. Slots are
// uniform: a bucket holds at most Z real blocks among its Z+S slots,
// wherever the permutation put them.
func (c *Controller) recountBucket(b int) {
	var dummies uint8
	for s := 0; s < c.geo.Z; s++ {
		i := c.geo.SlotIndex(b, s)
		if c.valid.has(i) && c.slots[i].Kind() != block.Real {
			dummies++
		}
	}
	c.dummiesUp[b] = dummies
}

// slotSet holds one flag per tree slot, one bit each.
type slotSet []uint64

func (v slotSet) has(i int) bool { return v[uint(i)/64]&(1<<(uint(i)%64)) != 0 }
func (v slotSet) add(i int)      { v[uint(i)/64] |= 1 << (uint(i) % 64) }
func (v slotSet) remove(i int)   { v[uint(i)/64] &^= 1 << (uint(i) % 64) }
