package cache

// MustNew is New for the tests' known-good configurations.
func MustNew(totalBytes, lineBytes, ways int) *Cache {
	c, err := New(totalBytes, lineBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Contains reports whether addr is resident, without updating LRU state.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineBits
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}
