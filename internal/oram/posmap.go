package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
)

// The position map below the seam, one for every engine: the choice
// between a direct map and FreeCursive's recursive one (Config.DirectPosMap
// and OnChipPosMapEntries), the labels, and for the recursive map the PLB,
// the posmap blocks parked in it, the walk that fetches the missing ones
// before a data access, and the fill that parks each fetched block. The
// walk reaches the tree only through the one access (Shared.access).

// newPosMap builds the position map cfg asks for over a tree of numLeaves
// leaves, every label drawn from labels.
func newPosMap(cfg *Config, numLeaves uint32, labels *rng.Xoshiro) (*posmap.Store, error) {
	hier := posmap.Direct(cfg.NumDataBlocks())
	if !cfg.DirectPosMap {
		var err error
		if hier, err = posmap.NewHierarchy(cfg.NumDataBlocks(), PosmapFanout, cfg.OnChipPosMapEntries); err != nil {
			return nil, err
		}
	}
	if hier.TotalBlocks() > block.MaxAddr {
		return nil, fmt.Errorf("oram: %d blocks exceed the slot encoding's address space", hier.TotalBlocks())
	}
	return posmap.NewStore(hier, numLeaves, labels), nil
}

// Label returns addr's current leaf label.
func (s *Shared) Label(addr uint32) uint32 { return s.pos.Label(addr) }

// walk resolves addr's address translation ahead of its data access,
// starting at cycle start: it finds the deepest translation source already
// on-chip (a PLB entry, or a real copy in the stash), then fetches the
// missing position-map blocks top-down, each through one access, whose
// remap parks it in the PLB. It returns the cycle the
// walk ends and the number of blocks it fetched; a direct map fetches none.
func (s *Shared) walk(start int64, addr uint32) (end int64, fetched int) {
	chain := s.pos.Hierarchy().Chain(addr, s.chain)
	s.chain = chain
	from := len(chain) // default: only the on-chip top level knows a label
	for i := 1; i < len(chain); i++ {
		if s.plb != nil && s.plb.Hit(uint64(chain[i])) {
			from = i
			break
		}
		if e, ok := s.st.Lookup(chain[i]); ok && e.Meta.Kind == block.Real {
			from = i
			break
		}
	}
	end = start
	for i := from - 1; i >= 1; i-- {
		s.access(end, chain[i], false)
		end = s.busy
		s.stats.PMAccesses++
	}
	return end, from - 1
}

// park moves a fetched posmap block from the stash into the PLB (both
// on-chip, so this is free). The model keeps labels, not posmap payloads:
// the fetched payload goes back to the pool. A displaced PLB entry
// re-enters the stash as the zero block (nil) it started as and flows back
// to the tree with the ordinary eviction stream — FreeCursive's PLB
// eviction costs no dedicated ORAM access. The PLB's lines and the parked
// blocks are the same set: only park fills one or empties the other.
func (s *Shared) park(addr uint32) {
	e, ok := s.st.Take(addr)
	if !ok {
		s.stats.Anomalies++ // lost: Remap could not re-create it in a full stash
		return
	}
	s.parked[addr] = e.Meta
	s.pl.put(e.Data)
	if _, victim, _, evicted := s.plb.Access(uint64(addr), true); evicted {
		m := s.parked[uint32(victim)]
		delete(s.parked, uint32(victim))
		s.stats.PLBWritebacks++
		if s.st.Insert(stash.Entry{Meta: m}) == stash.Overflow {
			s.stats.StashOverflows++
		}
	}
}
