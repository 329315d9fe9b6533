// Package tree implements the geometry of a binary ORAM tree: bucket
// indexing, path computation, common-prefix (intersection) depth,
// reverse-lexicographic eviction order, and the "subtree" physical layout
// used to map buckets onto DRAM rows.
//
// Conventions follow the paper: level 0 is the root, level L holds the
// leaves, leaf labels range over [0, 2^L). path-l is the set of L+1 buckets
// from the root down to leaf l.
package tree

import (
	"fmt"
	"math/bits"
)

// Geometry describes a binary ORAM tree with L+1 levels and Z block slots
// per bucket.
type Geometry struct {
	L int // leaf level; the tree has L+1 levels
	Z int // block slots per bucket
}

// NewGeometry validates and returns a Geometry. L must be in [1, 30] and Z
// in [1, 16]; values outside these ranges are either degenerate or would
// not fit the packed representations used elsewhere.
func NewGeometry(l, z int) (Geometry, error) {
	if l < 1 || l > 30 {
		return Geometry{}, fmt.Errorf("tree: leaf level L=%d out of range [1,30]", l)
	}
	if z < 1 || z > 16 {
		return Geometry{}, fmt.Errorf("tree: bucket size Z=%d out of range [1,16]", z)
	}
	return Geometry{L: l, Z: z}, nil
}

// Levels returns the number of levels, L+1.
func (g Geometry) Levels() int { return g.L + 1 }

// NumLeaves returns the number of leaves, 2^L.
func (g Geometry) NumLeaves() uint32 { return 1 << uint(g.L) }

// NumBuckets returns the total number of buckets, 2^(L+1)-1.
func (g Geometry) NumBuckets() int { return (1 << uint(g.L+1)) - 1 }

// NumSlots returns the total number of block slots, Z * NumBuckets.
func (g Geometry) NumSlots() int { return g.Z * g.NumBuckets() }

// PathLen returns the number of slots along one path, Z*(L+1).
func (g Geometry) PathLen() int { return g.Z * (g.L + 1) }

// BucketAt returns the heap index of the bucket at the given level on
// path-leaf. Level 0 is the root (bucket 0).
func (g Geometry) BucketAt(leaf uint32, level int) int {
	return (1 << uint(level)) - 1 + int(leaf>>uint(g.L-level))
}

// BucketLevel returns the level of bucket b (inverse of BucketAt's level).
func (g Geometry) BucketLevel(b int) int {
	return bits.Len64(uint64(b)+1) - 1
}

// Path fills dst (which must have length >= L+1) with the bucket indices of
// path-leaf from root to leaf and returns it. Passing a reusable dst avoids
// per-access allocation in the simulator's hot loop.
func (g Geometry) Path(leaf uint32, dst []int) []int {
	dst = dst[:g.L+1]
	for lv := 0; lv <= g.L; lv++ {
		dst[lv] = g.BucketAt(leaf, lv)
	}
	return dst
}

// IntersectLevel returns the deepest level at which path-a and path-b share
// a bucket: the length of the common prefix of the two labels' bit strings,
// read from the most significant (root) end. It ranges from 0 (only the
// root is shared) to L (a == b).
func (g Geometry) IntersectLevel(a, b uint32) int {
	if a == b {
		return g.L
	}
	// The first differing bit, counted from the top of the L-bit labels,
	// is where the paths diverge.
	diff := a ^ b
	return g.L - bits.Len32(diff)
}

// ReverseLexLeaf returns the leaf label of the g-th eviction path in
// reverse-lexicographic order (Gentry's order as used by Tiny ORAM and
// Ring ORAM): the L-bit reversal of count mod 2^L. Consecutive evictions
// thereby touch maximally disjoint paths.
func (g Geometry) ReverseLexLeaf(count uint64) uint32 {
	v := uint32(count) & (g.NumLeaves() - 1)
	return bits.Reverse32(v) >> uint(32-g.L)
}

// SlotIndex returns the flat index of slot s of bucket b in a contiguous
// slot array of size NumSlots.
func (g Geometry) SlotIndex(bucket, slot int) int { return bucket*g.Z + slot }
