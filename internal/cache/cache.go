// Package cache provides small hardware-cache models: a set-associative
// LRU cache (used for the L1/L2 hierarchy and the PosMap Lookup Buffer) and
// a set-associative LFU counter cache (the paper's Hot Address Cache, §V-B).
package cache

import "fmt"

// line is one way of one set.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp or LFU counter
}

// Cache is a set-associative cache with LRU replacement. Keys are abstract
// 64-bit addresses; the caller chooses the granularity (byte addresses with
// a line size, or block indices with LineBytes=1).
type Cache struct {
	sets     [][]line
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
}

// New constructs a cache of totalBytes capacity with the given line size
// and associativity. totalBytes must be an exact multiple of
// lineBytes*ways, and the number of sets must be a power of two.
func New(totalBytes, lineBytes, ways int) (*Cache, error) {
	if totalBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: sizes must be positive (total=%d line=%d ways=%d)", totalBytes, lineBytes, ways)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	lines := totalBytes / lineBytes
	if lines*lineBytes != totalBytes || lines%ways != 0 {
		return nil, fmt.Errorf("cache: %dB/%dB lines not divisible into %d ways", totalBytes, lineBytes, ways)
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nsets)
	}
	c := &Cache{
		sets:     make([][]line, nsets),
		ways:     ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(trailingZeros(lineBytes)),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c, nil
}

func trailingZeros(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Access looks up addr, allocating on miss. It returns whether the access
// hit, and — when a valid line was evicted to make room — the evicted
// line's address and dirtiness.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool, evicted bool) {
	c.tick++
	lineAddr := addr >> c.lineBits
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].used = c.tick
			if write {
				set[i].dirty = true
			}
			return true, 0, false, false
		}
	}
	// Choose an invalid way, else the LRU way.
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			evicted = false
			goto fill
		}
		if set[i].used < set[vi].used {
			vi = i
		}
	}
	if set[vi].valid {
		evicted = true
		victim = set[vi].tag << c.lineBits
		victimDirty = set[vi].dirty
	}
fill:
	set[vi] = line{tag: lineAddr, valid: true, dirty: write, used: c.tick}
	return false, victim, victimDirty, evicted
}

// Hit looks up addr and refreshes its LRU position, but never allocates.
// It is the probe operation for lookaside structures such as the PLB,
// where allocation happens separately after a fill.
func (c *Cache) Hit(addr uint64) bool {
	lineAddr := addr >> c.lineBits
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.tick++
			set[i].used = c.tick
			return true
		}
	}
	return false
}
