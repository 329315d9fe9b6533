package store

// Dirty reports whether the buffered subtree of the bottom band holds bytes
// not yet written to the file. The resident top is written at Close and is
// not counted.
func (fb *File) Dirty() bool { return fb.bottom.lo != fb.bottom.hi }
