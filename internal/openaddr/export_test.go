package openaddr

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }
