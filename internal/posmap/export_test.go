package posmap

// Len returns the number of tracked blocks.
func (s *Store) Len() int { return s.labels.n }

// Levels returns the number of hierarchy levels including the data level.
func (h Hierarchy) Levels() int { return len(h.counts) }
