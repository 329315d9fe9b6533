// Package openaddr is a fixed-size open-addressed hash table from block
// addresses to small indices, for the request path's per-access indexes
// (the stash's address index, the duplication policy's candidate index).
//
// The table is sized once, from a bound on its live entries the caller
// knows at construction, and never grows. Lookups probe linearly from a
// multiplicative hash. Deletion shifts the rest of the probe run back
// (Knuth's Algorithm R), so no tombstones accumulate. Every slot carries
// the generation it was written in; Reset starts a new generation, which
// empties the table in O(1). Nothing allocates after New, where a Go map
// would re-hash into fresh buckets as it churns and walk its buckets to
// clear.
package openaddr

import (
	"fmt"
	"math/bits"
)

type slot struct {
	key uint32
	val int32
	gen uint32 // the generation the slot was written in; stale = empty
}

// Table maps uint32 keys to int32 values. The zero value is not usable;
// use New.
type Table struct {
	slots []slot
	mask  uint32
	shift uint // 32 - log2(len(slots)): the hash keeps the top bits
	gen   uint32
	n     int
	bound int
}

// New returns an empty table that holds up to bound entries. It has at
// least twice as many slots, so probe runs stay short.
func New(bound int) *Table {
	if bound < 1 {
		panic(fmt.Sprintf("openaddr: bound %d must be positive", bound))
	}
	logSize := bits.Len(uint(2*bound - 1))
	return &Table{
		slots: make([]slot, 1<<logSize),
		mask:  1<<logSize - 1,
		shift: uint(32 - logSize),
		gen:   1,
		bound: bound,
	}
}

// home is key's first probe position: the top bits of a Fibonacci hash.
func (t *Table) home(key uint32) uint32 {
	return key * 0x9e3779b9 >> t.shift
}

// find returns the position holding key, or the empty position ending its
// probe run and false.
func (t *Table) find(key uint32) (uint32, bool) {
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.gen != t.gen {
			return i, false
		}
		if s.key == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// Get returns key's value and whether key is present.
func (t *Table) Get(key uint32) (int32, bool) {
	i, ok := t.find(key)
	if !ok {
		return 0, false
	}
	return t.slots[i].val, true
}

// Put sets key's value. Adding an entry past the bound New was given
// panics: the caller's bound was wrong.
func (t *Table) Put(key uint32, val int32) {
	i, ok := t.find(key)
	if !ok {
		if t.n == t.bound {
			panic(fmt.Sprintf("openaddr: entry %d past the table's bound", t.n+1))
		}
		t.n++
		t.slots[i] = slot{key: key, gen: t.gen}
	}
	t.slots[i].val = val
}

// Delete removes key if present, then moves each later entry of the probe
// run that the hole would otherwise cut off from its home back into it.
func (t *Table) Delete(key uint32) {
	hole, ok := t.find(key)
	if !ok {
		return
	}
	t.n--
	for j := (hole + 1) & t.mask; t.slots[j].gen == t.gen; j = (j + 1) & t.mask {
		// The entry at j may fill the hole unless its home lies cyclically
		// in (hole, j]: then its run starts after the hole and still reaches
		// it.
		if (j-t.home(t.slots[j].key))&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole].gen = 0
}

// Reset empties the table.
func (t *Table) Reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		// The generation wrapped: slots written 2^32 generations ago would
		// read as live again, so clear them once.
		clear(t.slots)
		t.gen = 1
	}
}
