package posmap

// Len returns the number of tracked blocks.
func (s *Store) Len() int { return len(s.labels) }
