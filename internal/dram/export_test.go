package dram

// MustNew is New for the tests' known-good configurations.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Read models a block read; see Access.
func (m *Memory) Read(now int64, addr uint64) int64 {
	return m.Access(now, addr, false, true)
}

// Write models a block write; see Access.
func (m *Memory) Write(now int64, addr uint64) int64 {
	return m.Access(now, addr, true, true)
}
