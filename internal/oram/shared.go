package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/metrics"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Shared is what every engine on the seam has in common around its own
// protocol, written once: the oblivious initial placement, the head of a
// request (stash-hit service, the constant-rate request clock and its
// virtual-dummy DRI signal), the remap that follows the engine's read, and
// the structural invariant walker. An engine keeps its tree image as
// packed block.Meta in a []uint64 indexed by Geometry.SlotIndex and hands
// that slice in; what differs between protocols — how one access touches
// the tree — stays in the engine, entering here only as the "issue one
// dummy access" step. The Path controller calls this exactly as Ring does.
type Shared struct {
	// Busy is the cycle the engine's read datapath frees. The engine's own
	// accesses, the dummy step included, advance it.
	Busy int64

	cfg      *Config
	geo      tree.Geometry
	st       *stash.Stash
	pos      *posmap.Store
	policy   DupPolicy
	stats    *Stats
	labelRNG *rng.Xoshiro
	dummy    func(start int64)

	lastDone int64 // completion of the last request that reached the tree
	ema      int64 // smoothed duration of one such request
}

// NewShared ties the shared code to one engine's state. Each engine seeds
// labelRNG from its own stream; dummy issues one timing-protection dummy
// access at the given slot and must leave Busy at its completion.
func NewShared(cfg *Config, geo tree.Geometry, st *stash.Stash, pos *posmap.Store,
	policy DupPolicy, stats *Stats, labelRNG *rng.Xoshiro, dummy func(start int64)) Shared {
	return Shared{cfg: cfg, geo: geo, st: st, pos: pos, policy: policy,
		stats: stats, labelRNG: labelRNG, dummy: dummy, ema: 1}
}

// Place is the oblivious initialisation pass over slots: every block of
// the unified address space, already labelled by the position map, goes to
// the deepest bucket on its path that holds fewer than z blocks (filling a
// bucket's slots from 0 up), else to the stash; a stash that cannot take
// the spill is a configuration error, never a dropped block.
func (s *Shared) Place(slots []uint64, z int) error {
	occ := make([]uint8, s.geo.NumBuckets())
	total := s.pos.Hierarchy().TotalBlocks()
	for a := 0; a < total; a++ {
		m := block.Meta{Kind: block.Real, Addr: uint32(a), Label: s.pos.Label(uint32(a))}
		lv := s.geo.L
		for ; lv >= 0; lv-- {
			if b := s.geo.BucketAt(m.Label, lv); int(occ[b]) < z {
				slots[s.geo.SlotIndex(b, int(occ[b]))] = m.Pack()
				occ[b]++
				break
			}
		}
		if lv < 0 && s.st.Insert(stash.Entry{Meta: m, Data: s.cfg.zeroPlain()}) == stash.Overflow {
			return fmt.Errorf("oram: initial placement overflowed the stash")
		}
	}
	return nil
}

// Begin opens one LLC request: it counts it, feeds the Hot Address Cache,
// and serves it out of resident on-chip state when possible (the CAM
// lookup is effectively instant) — a real block always, a shadow for reads
// unless shadow hits are disabled. A write that only hits a shadow must
// still collect and supersede the tree copy, so it is not served. hit is
// the kind of the copy that served.
func (s *Shared) Begin(now int64, addr uint32, write bool) (out Outcome, hit block.Kind, served bool) {
	s.stats.Requests++
	s.policy.NoteLLCMiss(addr)
	e, ok := s.st.Lookup(addr)
	if !ok || e.Meta.Kind != block.Real && (write || s.cfg.DisableShadowHits) {
		return Outcome{}, 0, false
	}
	if e.Meta.Kind == block.Real {
		s.stats.StashHits++
	} else {
		s.stats.ShadowStashHits++
	}
	s.stats.OnChipHits++
	return Outcome{Start: now, Forward: now + 1, Done: now + 1, StashHit: true, OnChip: true}, e.Meta.Kind, true
}

// Align returns the cycle at which a real request presented at now may
// start, and tells the policy's DRI counter about it. Under timing
// protection every unclaimed slot before now is first back-filled with a
// dummy (which must reach the policy before this real request) and the
// request takes the next slot; without it, a gap long enough to have
// fitted another request is the virtual dummy signal — the DRI was long,
// RD-Dup preferred (DESIGN.md §3).
func (s *Shared) Align(now int64) int64 {
	start := max(now, s.Busy)
	if s.cfg.TimingProtection {
		s.AdvanceTo(now)
		start = s.nextSlot(max(now, s.Busy))
	} else if s.stats.ORAMAccesses > 0 && start-s.lastDone > s.ema {
		s.policy.NoteORAMRequest(true)
	}
	s.policy.NoteORAMRequest(false)
	return start
}

// AdvanceTo issues timing-protection dummy requests for every slot that
// falls strictly before now while the engine is idle. Without timing
// protection it is a no-op.
func (s *Shared) AdvanceTo(now int64) {
	if !s.cfg.TimingProtection {
		return
	}
	for slot := s.nextSlot(s.Busy); slot < now; slot = s.nextSlot(s.Busy) {
		s.stats.DummyAccesses++
		s.policy.NoteORAMRequest(true)
		s.dummy(slot)
	}
}

func (s *Shared) nextSlot(t int64) int64 {
	r := s.cfg.RequestRate
	return (t + r - 1) / r * r
}

// Retire closes a request that reached the tree: it tracks the typical
// request duration Align's virtual-dummy signal compares gaps against.
func (s *Shared) Retire(out Outcome) {
	s.lastDone = out.Done
	s.ema += (out.Done - out.Start - s.ema) / 8
}

// Remap moves addr to a fresh random path after the engine's read
// (Step-3) and makes sure the block reached the stash: the invariant
// guarantees it was on the path or in the stash, so a miss here means an
// earlier overflow dropped it, and it is re-created and counted.
func (s *Shared) Remap(addr uint32) {
	label := uint32(s.labelRNG.Uint64n(uint64(s.geo.NumLeaves())))
	s.pos.SetLabel(addr, label)
	if _, ok := s.st.Lookup(addr); !ok {
		s.stats.Anomalies++
		s.st.Insert(stash.Entry{
			Meta: block.Meta{Kind: block.Real, Addr: addr, Label: label},
			Data: s.cfg.zeroPlain(),
		})
	}
	s.st.Relabel(addr, label)
}

// RecordRequest feeds the latency histograms and the cycle-attribution
// ledger after one request presented at issue. The end-to-end latency
// decomposes into telescoping legs — presentation to serve start (queue
// wait), the posmap walk (zero for a direct map), the walk's end to the
// data forward (read), and forward to completion (eviction drain). The
// legs are differences of cycle stamps the engine already decided, so
// they sum bit-exactly back to out.Done-issue; Ledger.RecordAccess
// verifies that, and attaching a collector never changes a run.
func RecordRequest(mc *metrics.Collector, issue int64, out Outcome, posmapWalk int64) {
	mc.ReqForward.Record(out.Forward - issue)
	mc.ReqComplete.Record(out.Done - issue)
	mc.Ledger.RecordAccess(out.Start-issue, posmapWalk, out.Forward-out.Start-posmapWalk,
		out.Done-out.Forward, out.Done-issue)
}

// CheckTree walks the whole tree image and the stash and verifies the
// structural guarantees the security argument rests on (DESIGN.md §3):
//
//  1. Every non-dummy tree slot lies on the path of its label (the Path
//     ORAM invariant, the paper's Rule-1).
//  2. Exactly one real copy of every unified-space block exists — in the
//     tree, in the stash, or parked on-chip (the PLB's blocks) — carrying
//     its current position-map label.
//  3. Every shadow has the same label as its real block and records the
//     real's level as SrcLevel; tree shadows sit strictly above the real
//     (Rule-2); if the real block is on-chip, no shadows exist anywhere.
//  4. The stash never holds two entries for one address (merge rules).
//
// valid, when non-nil, marks the slots unread since their bucket's last
// write; the others hold nothing. staleTreeShadows relaxes rule 3 in the
// one way an engine that reads a single slot per bucket cannot avoid: a
// remapped block's old shadows stay in the tree until their buckets are
// rewritten, so tree shadows whose label is not the position map's are
// skipped (the engine must never serve them; in the stash they remain an
// error). O(tree size); for tests, not the hot path.
func (s *Shared) CheckTree(slots []uint64, valid []bool, parked map[uint32]block.Meta, staleTreeShadows bool) error {
	type copyAt struct {
		m     block.Meta
		level int // tree level; -1 on-chip
	}
	total := s.pos.Hierarchy().TotalBlocks()
	reals := make(map[uint32]copyAt, total)
	shadows := make(map[uint32][]copyAt)
	note := func(m block.Meta, level int) error {
		if m.Kind == block.Shadow {
			shadows[m.Addr] = append(shadows[m.Addr], copyAt{m, level})
		} else if _, dup := reals[m.Addr]; dup {
			return fmt.Errorf("block %d has more than one real copy", m.Addr)
		} else {
			reals[m.Addr] = copyAt{m, level}
		}
		return nil
	}

	for i, packed := range slots {
		m := block.Unpack(packed)
		if m.IsDummy() || valid != nil && !valid[i] {
			continue
		}
		b := i / s.geo.Z
		lv := s.geo.BucketLevel(b)
		if s.geo.BucketAt(m.Label, lv) != b {
			return fmt.Errorf("rule-1: %v at bucket %d level %d is off its path", m, b, lv)
		}
		if staleTreeShadows && m.Kind == block.Shadow && m.Label != s.pos.Label(m.Addr) {
			continue // tolerated until its bucket is rewritten
		}
		if err := note(m, lv); err != nil {
			return err
		}
	}
	for _, m := range parked {
		if err := note(m, -1); err != nil {
			return err
		}
	}
	seen := make(map[uint32]bool)
	var err error
	s.st.ForEach(func(e stash.Entry) {
		switch {
		case err != nil:
		case seen[e.Meta.Addr]:
			err = fmt.Errorf("stash holds two entries for address %d", e.Meta.Addr)
		default:
			seen[e.Meta.Addr] = true
			err = note(e.Meta, -1)
		}
	})
	if err != nil {
		return err
	}

	for a := 0; a < total; a++ {
		addr := uint32(a)
		r, ok := reals[addr]
		if !ok {
			if s.stats.Anomalies > 0 || s.stats.StashOverflows > 0 {
				continue // a recorded overflow explains the loss
			}
			return fmt.Errorf("block %d has no real copy", addr)
		}
		if got := s.pos.Label(addr); got != r.m.Label {
			return fmt.Errorf("block %d labelled %d in posmap but %d in storage", addr, got, r.m.Label)
		}
		for _, sh := range shadows[addr] {
			switch {
			case sh.m.Label != r.m.Label:
				return fmt.Errorf("shadow of %d labelled %d, real labelled %d", addr, sh.m.Label, r.m.Label)
			case r.level < 0:
				return fmt.Errorf("shadow of %d exists while its real copy is on-chip", addr)
			case sh.level >= r.level: // on-chip shadows (-1) are above any tree level
				return fmt.Errorf("rule-2: shadow of %d at level %d, real at level %d", addr, sh.level, r.level)
			case int(sh.m.SrcLevel) != r.level:
				return fmt.Errorf("shadow of %d records SrcLevel %d, real at level %d", addr, sh.m.SrcLevel, r.level)
			}
		}
	}
	return nil
}
