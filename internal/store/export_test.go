package store

// Dirty reports whether any band holds buffered bytes not yet written to
// the file.
func (fb *File) Dirty() bool {
	for _, b := range fb.bands {
		if b.lo != b.hi {
			return true
		}
	}
	return false
}
