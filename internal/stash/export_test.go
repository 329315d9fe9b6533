package stash

// Len returns the number of occupied slots (reals + shadows).
func (s *Stash) Len() int { return len(s.entries) }
