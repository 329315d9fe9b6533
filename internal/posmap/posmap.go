// Package posmap implements the ORAM position map in both the direct form
// (all labels on-chip) and the recursive, unified-address-space form of
// FreeCursive ORAM that the paper's baseline uses (§II-C, Table I's
// "PLB 64KB [14]").
//
// In the recursive form, the label of block a is stored inside a
// position-map block at the next hierarchy level; position-map blocks are
// ordinary ORAM blocks living in the same tree as data. The hierarchy stops
// at the first level small enough to keep entirely on-chip.
//
// The Store keeps the label of every unified-space block in one flat array.
// That is semantically identical to scattering the labels across
// position-map block payloads — exactly one current copy of each label
// exists either way — but it spares the simulator a stale-payload protocol.
// The Hierarchy type still says which position-map *blocks* must be
// on-chip before a label may be used, which is all that affects the
// externally visible access sequence and its timing.
package posmap

import (
	"fmt"
	"math/bits"

	"shadowblock/internal/rng"
)

// Hierarchy describes the unified address space: data blocks at level 0,
// then position-map levels 1..K stored in the tree, with level-K labels
// held on-chip.
type Hierarchy struct {
	fanout int
	counts []int    // counts[i] = number of blocks at hierarchy level i
	bases  []uint32 // bases[i] = first unified address of level i
}

// NewHierarchy builds the hierarchy for nData data blocks. fanout is the
// number of labels per position-map block (block bytes / label bytes, 16
// for 64-byte blocks). onChipMax bounds the top-level table kept on-chip.
func NewHierarchy(nData, fanout, onChipMax int) (Hierarchy, error) {
	if nData <= 0 || fanout <= 1 || onChipMax <= 0 {
		return Hierarchy{}, fmt.Errorf("posmap: bad hierarchy (n=%d fanout=%d onChip=%d)", nData, fanout, onChipMax)
	}
	h := Hierarchy{fanout: fanout}
	count := nData
	var base uint32
	for {
		h.counts = append(h.counts, count)
		h.bases = append(h.bases, base)
		if count <= onChipMax {
			return h, nil
		}
		base += uint32(count)
		count = (count + fanout - 1) / fanout
		if len(h.counts) > 12 {
			return Hierarchy{}, fmt.Errorf("posmap: hierarchy did not converge")
		}
	}
}

// Direct returns a trivial hierarchy with every label on-chip.
func Direct(nData int) Hierarchy {
	return Hierarchy{fanout: 1, counts: []int{nData}, bases: []uint32{0}}
}

// Levels returns the number of hierarchy levels including the data level.
func (h Hierarchy) Levels() int { return len(h.counts) }

// PMLevels returns the number of position-map levels stored in the ORAM
// tree (0 for a direct map).
func (h Hierarchy) PMLevels() int { return len(h.counts) - 1 }

// TotalBlocks returns the size of the unified address space: data blocks
// plus every in-tree position-map level. The on-chip top level is counted
// too when it is the data level itself (direct map).
func (h Hierarchy) TotalBlocks() int {
	total := 0
	for _, c := range h.counts {
		total += c
	}
	return total
}

// NumData returns the number of data blocks.
func (h Hierarchy) NumData() int { return h.counts[0] }

// LevelOf returns the hierarchy level of a unified address.
func (h Hierarchy) LevelOf(addr uint32) int {
	for i := len(h.bases) - 1; i >= 0; i-- {
		if addr >= h.bases[i] {
			return i
		}
	}
	return 0
}

// Parent returns the unified address of the position-map block that stores
// addr's label. ok is false when addr belongs to the top level, whose
// labels are on-chip.
func (h Hierarchy) Parent(addr uint32) (parent uint32, ok bool) {
	lvl := h.LevelOf(addr)
	if lvl == len(h.counts)-1 {
		return 0, false
	}
	off := addr - h.bases[lvl]
	return h.bases[lvl+1] + off/uint32(h.fanout), true
}

// Chain fills dst with addr followed by its position-map ancestors, from
// data level up to (but excluding) the on-chip top when addr is a data
// address; the last element is the deepest in-tree position-map block, or
// just addr itself for a direct map.
func (h Hierarchy) Chain(addr uint32, dst []uint32) []uint32 {
	dst = dst[:0]
	dst = append(dst, addr)
	for {
		p, ok := h.Parent(dst[len(dst)-1])
		if !ok {
			return dst
		}
		dst = append(dst, p)
	}
}

// Store keeps the current leaf label of every unified-space block.
type Store struct {
	hier   Hierarchy
	labels []uint32
}

// NewStore allocates a store with every label assigned uniformly at random
// from [0, numLeaves), as after the one-time oblivious initialisation:
// label a is r's a-th draw of Uint64n(numLeaves). numLeaves is a tree's
// leaf count, a power of two; anything else panics.
func NewStore(h Hierarchy, numLeaves uint32, r *rng.Xoshiro) *Store {
	if numLeaves == 0 || numLeaves&(numLeaves-1) != 0 {
		panic(fmt.Sprintf("posmap: %d leaves is not a power of two", numLeaves))
	}
	s := &Store{hier: h, labels: make([]uint32, h.TotalBlocks())}
	r.FillTopBits(s.labels, uint(bits.TrailingZeros32(numLeaves)))
	return s
}

// Hierarchy returns the address-space description.
func (s *Store) Hierarchy() Hierarchy { return s.hier }

// Label returns the current label of addr.
func (s *Store) Label(addr uint32) uint32 { return s.labels[addr] }

// SetLabel records a remap of addr.
func (s *Store) SetLabel(addr, label uint32) { s.labels[addr] = label }

// Len returns the number of tracked blocks.
func (s *Store) Len() int { return len(s.labels) }
