package oram

import (
	"fmt"
	"slices"

	"shadowblock/internal/block"
	"shadowblock/internal/cache"
	"shadowblock/internal/openaddr"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Shared is what every engine on the seam has in common around its own
// protocol, written once: the oblivious initial placement, the head of a
// request (stash-hit service, the constant-rate request clock and its
// virtual-dummy DRI signal), the position map with its recursive walk and
// PLB (posmap.go), the remap that follows the engine's read, the eviction
// clock, the stash side of a path read (Collect) and of a path
// write (Algorithm 1: BeginWrite, Fill, Keep, EndWrite), the observer, and
// the structural invariant walker. Shared alone drives the duplication
// policy. An engine keeps its tree image as a []block.Slot indexed by
// Geometry.SlotIndex and hands that slice in; what differs between
// protocols — which slots one access reads, and in what order a write
// visits them — stays in the engine, entering here only as its two access
// steps: "read one block's path" for the walk and "issue one dummy access"
// for the clock. The Path controller calls this exactly as Ring does.
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
	pl       *payloads // the engine's payload pool; nil unless functional
	remaps   *rng.Xoshiro
	access   func(start int64, addr uint32) (end int64)
	dummy    func(start int64)
	observer func(Event)

	// The recursive map's PLB (nil for a direct map) and the posmap blocks
	// parked in its SRAM, which are neither in the tree nor in the stash
	// while resident; chain is the walk's scratch.
	plb    *cache.Cache
	parked map[uint32]block.Meta
	chain  []uint32

	lastDone int64 // completion of the last request that reached the tree
	ema      int64 // smoothed duration of one such request

	// The open path write (BeginWrite..EndWrite): its leaf, the stash's
	// reals pooled by the deepest level they may take on it (filled by the
	// first Fill that may place a real), and in functional mode the
	// payloads placed so far, which the policy's shadows copy.
	leaf       uint32
	pools      [][]uint32
	poolsReady bool
	placed     *openaddr.Table // addr -> index into placedData
	placedData [][]byte
}

// NewShared ties the shared code to one engine's state and builds the
// position map cfg asks for. Each engine seeds the initial labels and the
// remaps from streams of its own. access reads addr's path starting no
// earlier than start — remap and any eviction it triggers included — and
// returns the cycle the datapath frees; dummy issues one timing-protection
// dummy access at the given slot. Both must leave Busy at their
// completion. A nil policy is NopPolicy; one implementing GeometryBinder is
// bound here to geo and st, before anything calls it.
func NewShared(cfg *Config, geo tree.Geometry, st *stash.Stash, policy DupPolicy, stats *Stats,
	labels, remaps *rng.Xoshiro, access func(start int64, addr uint32) int64, dummy func(start int64)) (Shared, error) {
	if policy == nil {
		policy = NopPolicy{}
	}
	if b, ok := policy.(GeometryBinder); ok {
		if err := b.BindGeometry(geo, st); err != nil {
			return Shared{}, err
		}
	}
	pos, err := newPosMap(cfg, geo.NumLeaves(), labels)
	if err != nil {
		return Shared{}, err
	}
	s := Shared{cfg: cfg, geo: geo, st: st, pos: pos, policy: policy,
		stats: stats, remaps: remaps, access: access, dummy: dummy, ema: 1,
		pools:      make([][]uint32, geo.Levels()),
		placed:     openaddr.New(geo.PathLen()),
		placedData: make([][]byte, 0, geo.PathLen()),
	}
	if !cfg.DirectPosMap {
		entries := PLBBytes / cfg.BlockBytes
		if s.plb, err = cache.New(entries, 1, PLBWays); err != nil {
			return Shared{}, fmt.Errorf("oram: PLB geometry: %w", err)
		}
		s.parked = make(map[uint32]block.Meta, entries)
	}
	return s, nil
}

// SetObserver registers the callback receiving every externally visible
// operation the engine emits.
func (s *Shared) SetObserver(fn func(Event)) { s.observer = fn }

// Emit reports one externally visible operation to the observer, if any.
func (s *Shared) Emit(kind EventKind, leaf uint32, start int64) {
	if s.observer != nil {
		s.observer(Event{Kind: kind, Leaf: leaf, Start: start})
	}
}

// Place is the oblivious initialisation pass over slots: every block of
// the unified address space, already labelled by the position map, goes to
// the deepest bucket on its path that holds fewer than z blocks (filling a
// bucket's slots from 0 up), else to the stash; a stash that cannot take
// the spill is a configuration error, never a dropped block. The per-bucket
// counts cost a temporary byte per bucket; finding a bucket's next free
// slot by scanning the image instead takes a cache miss into it per level
// probed, which more than doubles the pass.
func (s *Shared) Place(slots []block.Slot, z int) error {
	occ := make([]uint8, s.geo.NumBuckets())
	total := s.pos.Hierarchy().TotalBlocks()
	for a := 0; a < total; a++ {
		m := block.Meta{Kind: block.Real, Addr: uint32(a), Label: s.pos.Label(uint32(a))}
		lv := s.geo.L
		for ; lv >= 0; lv-- {
			if b := s.geo.BucketAt(m.Label, lv); int(occ[b]) < z {
				slots[s.geo.SlotIndex(b, int(occ[b]))] = block.NewSlot(m)
				occ[b]++
				break
			}
		}
		if lv < 0 && s.st.Insert(stash.Entry{Meta: m}) == stash.Overflow {
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
// RD-Dup preferred (DESIGN.md §3, note 8).
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
// earlier overflow dropped it, and it is re-created and counted. A
// position-map block, which only Walk fetches, then parks in the PLB: after
// its remap and before the access's eviction could sweep it back into the
// tree (DESIGN.md §7, finding 5).
func (s *Shared) Remap(addr uint32) {
	label := uint32(s.remaps.Uint64n(uint64(s.geo.NumLeaves())))
	s.pos.SetLabel(addr, label)
	if _, ok := s.st.Lookup(addr); !ok {
		s.stats.Anomalies++
		s.st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Real, Addr: addr, Label: label}})
	}
	s.st.Relabel(addr, label)
	if int(addr) >= s.cfg.NumDataBlocks() {
		s.park(addr)
	}
}

// NextEviction opens one read-write phase: it returns the next
// reverse-lexicographic leaf and counts the phase. Stats.EvictionPhases is
// the eviction count, and the memory port's write-back starvation clock.
func (s *Shared) NextEviction() uint32 {
	leaf := s.geo.ReverseLexLeaf(s.stats.EvictionPhases)
	s.stats.EvictionPhases++
	return leaf
}

// Collect moves one block read out of the tree into the stash, labelled
// from the position map the image agrees with; a shadow is ranked by the
// policy's retention priority. A stale shadow holds data older than its
// block's remap and is dropped; a real block the stash cannot take is an
// overflow. The caller skips dummy slots. In functional mode data is the
// block's payload, which the stash takes over (nil is the zero block).
func (s *Shared) Collect(sl block.Slot, data []byte) {
	if sl.Stale() {
		s.stats.StaleShadows++
		s.pl.put(data)
		return
	}
	e := stash.Entry{Meta: sl.Meta(s.pos.Label(sl.Addr())), Data: data}
	if e.Meta.Kind == block.Shadow {
		e.Priority = s.policy.ShadowPriority(e.Meta.Addr)
	}
	if s.st.Insert(e) == stash.Overflow {
		s.stats.StashOverflows++
	}
}

// BeginWrite opens a write of the buckets on path-leaf (a whole path, or
// one bucket a reshuffle rewrites in place). Between it and EndWrite the
// engine decides every slot it writes with Fill or Keep, at levels that
// never increase: Algorithm 1 for whatever slot order the engine keeps.
func (s *Shared) BeginWrite(leaf uint32) {
	s.policy.BeginPathWrite(leaf)
	s.leaf = leaf
	s.poolsReady = false
	s.placed.Reset()
	s.placedData = s.placedData[:0]
}

// Fill decides the next slot written at level lv. With withReal set, that
// is the stash's deepest real block eligible there, taken out of the
// stash; otherwise, or when none is eligible, a shadow the policy selects,
// and failing that a dummy. In functional mode data is the payload to seal
// (nil stands for the zero block). The reals are pooled in address order,
// the canonical placement order: the stash's internal layout depends on
// how many shadows passed through it, and placement must not — the
// security tests rely on Tiny and Shadow ORAM evicting identically.
func (s *Shared) Fill(lv int, withReal bool) (block.Meta, []byte) {
	if withReal {
		if !s.poolsReady {
			s.fillPools()
		}
		if addr, ok := s.popDeepest(lv); ok {
			e, ok := s.st.Take(addr)
			if !ok {
				s.stats.Anomalies++ // the slot stays a dummy
				return block.DummyMeta, nil
			}
			if s.cfg.Functional {
				s.placed.Put(addr, int32(len(s.placedData)))
				s.placedData = append(s.placedData, e.Data)
			}
			s.Keep(e.Meta, lv)
			return e.Meta, e.Data
		}
	}
	if m, ok := s.policy.SelectDup(s.leaf, lv); ok {
		s.Keep(m, lv)
		return m, s.dupPayload(m.Addr)
	}
	return block.DummyMeta, nil
}

// Keep records that m was written at level lv without passing through
// Fill: a reshuffle keeping its bucket's own reals in place.
func (s *Shared) Keep(m block.Meta, lv int) { s.policy.NoteEvict(m, lv) }

// EndWrite closes the write BeginWrite opened. The reals it placed are
// sealed back into the tree, and no shadow can copy them any more, so
// their payloads return to the pool.
func (s *Shared) EndWrite() {
	for _, d := range s.placedData {
		s.pl.put(d)
	}
	s.policy.EndPathWrite()
}

// fillPools buckets the stash's real blocks by how deep they may go on the
// write's leaf: pools[d] receives the addresses whose label leaves the
// path below level d, ascending.
func (s *Shared) fillPools() {
	for i := range s.pools {
		s.pools[i] = s.pools[i][:0]
	}
	s.st.ForEachReal(func(e stash.Entry) {
		il := s.geo.IntersectLevel(e.Meta.Label, s.leaf)
		s.pools[il] = append(s.pools[il], e.Meta.Addr)
	})
	// slices.Sort, not sort.Slice: the interface-based sorter allocates a
	// closure and a swapper per call on the request path.
	for i := range s.pools {
		slices.Sort(s.pools[i])
	}
	s.poolsReady = true
}

// popDeepest pops the deepest-eligible block for a slot at level lv: the
// last address of the deepest non-empty pool at level >= lv.
func (s *Shared) popDeepest(lv int) (uint32, bool) {
	for d := len(s.pools) - 1; d >= lv; d-- {
		if n := len(s.pools[d]); n > 0 {
			a := s.pools[d][n-1]
			s.pools[d] = s.pools[d][:n-1]
			return a, true
		}
	}
	return 0, false
}

// dupPayload finds the plaintext for a shadow copy of addr: either the
// block was placed earlier in this very write, or a copy of it is still
// resident in the stash. A lost block is the zero block (nil).
func (s *Shared) dupPayload(addr uint32) []byte {
	if !s.cfg.Functional {
		return nil
	}
	if i, ok := s.placed.Get(addr); ok {
		return s.placedData[i]
	}
	if e, ok := s.st.Lookup(addr); ok {
		return s.plain(e)
	}
	s.stats.Anomalies++
	return nil
}

// plain returns the plaintext of stash entry e. A shadow an eviction
// collected is still sealed: it is opened now, and its plaintext replaces
// the ciphertext in the stash, so a block is opened at most once.
func (s *Shared) plain(e stash.Entry) []byte {
	if s.pl == nil || !s.pl.isSealed(e.Data) {
		return e.Data
	}
	pt := s.pl.open(e.Data)
	s.st.Update(e.Meta.Addr, pt)
	return pt
}

// CheckTree walks the whole tree image and the stash and verifies the
// structural guarantees the security argument rests on (DESIGN.md §3):
//
//  1. Every non-dummy tree slot lies on the path of its label (the Path
//     ORAM invariant, the paper's Rule-1). A slot stores no label; its
//     label is the position map's, which this rule therefore checks.
//  2. Exactly one real copy of every unified-space block exists — in the
//     tree, in the stash, or parked on-chip (the PLB's blocks) — carrying
//     its current position-map label (the stash and parked copies store
//     one of their own).
//  3. Every shadow has the same label as its real block and records the
//     real's level as SrcLevel; tree shadows sit strictly above the real
//     (Rule-2); if the real block is on-chip, no shadows exist anywhere.
//  4. The stash never holds two entries for one address (merge rules).
//
// live, when non-nil, reports the slots unread since their bucket's last
// write; the others hold nothing. Stale-tagged shadows are skipped: an
// engine that reads a single slot per bucket leaves a remapped block's old
// shadows in the tree until their buckets are rewritten, their old label
// exists nowhere any more, and the engine must never serve them. O(tree
// size); for tests, not the hot path.
func (s *Shared) CheckTree(slots []block.Slot, live func(slot int) bool) error {
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

	for i, sl := range slots {
		if sl.Kind() == block.Dummy || sl.Stale() || live != nil && !live(i) {
			continue
		}
		m := sl.Meta(s.pos.Label(sl.Addr()))
		b := i / s.geo.Z
		lv := s.geo.BucketLevel(b)
		if s.geo.BucketAt(m.Label, lv) != b {
			return fmt.Errorf("rule-1: %v at bucket %d level %d is off its path", m, b, lv)
		}
		if err := note(m, lv); err != nil {
			return err
		}
	}
	for _, m := range s.parked {
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
