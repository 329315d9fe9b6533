// Package oram implements the Tiny ORAM controller the paper uses as its
// baseline (§II-C): a Path-ORAM derivative with read-only accesses, an
// eviction every A accesses along reverse-lexicographic paths, a recursive
// position map with a PosMap Lookup Buffer (FreeCursive), optional treetop
// caching, optional XOR compression, and optional timing protection by
// constant-rate (real or dummy) requests.
//
// The shadow-block mechanism of the paper plugs in through the DupPolicy
// interface, implemented by package core; with the no-op policy this is
// exactly Tiny ORAM.
package oram

import (
	"fmt"

	"shadowblock/internal/dram"
	"shadowblock/internal/store"
)

// NoAddr marks "no intended block" (dummy requests, eviction reads).
const NoAddr = ^uint32(0)

// maxChannels bounds Config.Channels, so per-channel observation state
// fits fixed arrays.
const maxChannels = 64

// Table I's fixed parameters. The paper only consumes them as constants.
const (
	AESLatency   = 32       // decrypt pipeline latency in cycles
	PosmapFanout = 16       // labels per recursive posmap block
	PLBBytes     = 64 << 10 // PosMap Lookup Buffer capacity
	PLBWays      = 8        // PLB associativity
)

// Config describes one ORAM instance. The zero value is not usable; start
// from Default.
type Config struct {
	L int // leaf level; the tree has L+1 levels and 2^L leaves
	Z int // block slots per bucket
	A int // eviction rate: one eviction phase per A accesses

	BlockBytes    int // block (cache line) size
	StashCapacity int // on-chip stash entries

	// Position map. When DirectPosMap is false the recursive FreeCursive
	// organisation is used: PosmapFanout labels per posmap block, hierarchy
	// capped by OnChipPosMapEntries, and a PLB of PLBBytes/PLBWays caching
	// posmap blocks.
	DirectPosMap        bool
	OnChipPosMapEntries int

	// Timing protection (§VI-C): one ORAM request — real or dummy — is
	// launched every RequestRate cycles.
	TimingProtection bool
	RequestRate      int64

	// TreetopLevels caches the top levels of the tree on-chip ([15]).
	TreetopLevels int

	// XOR enables the XOR-compression comparator ([12],[31],[34]): path
	// reads avoid the processor bus but the intended block is only
	// available once the whole path has been read and XOR-ed.
	XOR bool

	// Pipeline enables the pipelined request engine: the eviction
	// writeback of request N may overlap the path-read stage of request
	// N+1, arbitrated by the DRAM model's per-bank reservation state, so
	// each access of the read waits only for its own bank.
	// The sequence of DRAM touches per request (addresses and real/dummy
	// pattern) is exactly the serial engine's; only start cycles move.
	// Off by default: the serial engine is the paper's timing model, and
	// with Pipeline=false cycle counts are bit-identical to it. With
	// WBDecoupled it does nothing: the scheduler parks the write-back
	// instead of leaving it to drain (Port.Retire), and the next read
	// overlaps the writes it slots either way.
	Pipeline bool

	// WBDecoupled enables the decoupled per-bucket writeback scheduler:
	// eviction writes are queued per bucket instead of reserved as one
	// monolithic batch at eviction time, and drained into idle bank
	// windows between path reads with read-priority arbitration. Demand
	// path reads reserve DRAM first; a queued write is forced to retire
	// only when its bucket is about to be read again (correctness) or when
	// it has been deferred for 8 eviction phases (starvation bound). The
	// per-request (kind, leaf, order) touch sequence is identical to the
	// coupled engine — only DRAM reservation cycles move.
	// Off by default: cycle counts are bit-identical with it off.
	WBDecoupled bool

	// Channels > 0 selects the multi-channel memory system: the DRAM model
	// runs with that many channels (overriding DRAM.Channels) and the tree
	// uses the channel-interleaved subtree layout (each path's rows split
	// evenly across channels). Which slots are touched, and in what
	// per-request order, is identical to the legacy engine — only timing
	// differs — and Channels=1 is cycle-identical to the legacy layout on
	// a single-channel DRAM config. 0 (the default) keeps the legacy
	// contiguous layout with DRAM.Channels as configured.
	Channels int

	// DisableShadowHits stops the stash from serving reads out of resident
	// shadow blocks. Used by the security tests (with hits disabled, a
	// shadow ORAM must produce a byte-identical external trace to Tiny
	// ORAM under the same seed) and by the ablation benchmarks that
	// separate HD-Dup's request-avoidance benefit from RD-Dup's
	// early-forward benefit.
	DisableShadowHits bool

	// Functional stores and verifies real encrypted payloads. Timing-only
	// simulations leave it off.
	Functional bool

	// Store is where functional mode keeps the sealed bucket contents: any
	// store.Backend (in-memory, file-backed, latency-injecting remote...).
	// Nil selects the in-memory backend. Only meaningful with Functional;
	// timing-only simulations store no payloads at all. A backend error is
	// fatal to the instance (the external tree image is gone), so the
	// controller panics rather than serving corrupt state.
	Store store.Backend

	Seed uint64
	DRAM dram.Config
}

// Default returns the paper's Table I configuration at the scaled default
// geometry (L=18; see DESIGN.md §6 for the scaling argument).
func Default() Config {
	return Config{
		L:                   18,
		Z:                   5,
		A:                   5,
		BlockBytes:          64,
		StashCapacity:       200,
		OnChipPosMapEntries: 4096,
		RequestRate:         800,
		Seed:                1,
		DRAM:                dram.DDR3_1333(),
	}
}

// NumDataBlocks returns the size of the data address space, 2^(L+2) blocks
// (the Table I proportion: a 4 GB data ORAM of 2^26 64-byte blocks in an
// L=24 tree).
func (c Config) NumDataBlocks() int { return 1 << uint(c.L+2) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.L < 4 || c.L > 24:
		return fmt.Errorf("oram: L=%d outside supported range [4,24]", c.L)
	case c.Z < 1 || c.Z > 16:
		return fmt.Errorf("oram: Z=%d outside [1,16]", c.Z)
	case c.A < 1:
		return fmt.Errorf("oram: eviction rate A=%d must be >= 1", c.A)
	case c.BlockBytes < 8 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("oram: BlockBytes=%d must be a power of two >= 8", c.BlockBytes)
	case c.StashCapacity < c.Z*(c.L+1):
		return fmt.Errorf("oram: stash capacity %d cannot hold one path (%d)", c.StashCapacity, c.Z*(c.L+1))
	case !c.DirectPosMap && c.OnChipPosMapEntries < 1:
		return fmt.Errorf("oram: recursive posmap needs on-chip entries >= 1")
	case c.TimingProtection && c.RequestRate < 1:
		return fmt.Errorf("oram: timing protection needs a positive request rate")
	case c.TreetopLevels < 0 || c.TreetopLevels > c.L+1:
		return fmt.Errorf("oram: TreetopLevels=%d outside [0,%d]", c.TreetopLevels, c.L+1)
	case c.Channels < 0 || c.Channels > maxChannels:
		return fmt.Errorf("oram: Channels=%d outside [0,%d]", c.Channels, maxChannels)
	case c.Store != nil && !c.Functional:
		return fmt.Errorf("oram: a storage backend requires functional mode")
	}
	return c.DRAM.Validate()
}
