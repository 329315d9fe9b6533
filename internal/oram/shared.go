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

// Shared is the one engine skeleton, which every engine embeds and which
// answers the engine seam for it: the memory port (embedded), stash,
// counters and position map, the oblivious initial placement, the one
// request driver (Request: the idle gap settled before it, stash-hit
// service, the constant-rate request clock and its virtual-dummy DRI
// signal, the outcome and its observation), the access clock (every path
// read — real, posmap, dummy, eviction — is noted here, and every A
// accesses the next reverse-lexicographic path is evicted), the position
// map's recursive walk and PLB (posmap.go), the remap that follows the
// engine's read, the stash side of a path read (Collect) and of a path
// write (Algorithm 1: BeginWrite, Fill, Keep, EndWrite), the observer, and
// the structural invariant walker. Shared alone drives the duplication
// policy. An engine keeps its tree image as a []block.Slot indexed by
// Geometry.SlotIndex and hands that slice in; what differs between
// protocols — which slots one access reads, and in what order a write
// visits them — stays in the engine, entering here only as its two steps:
// "read one path" and "evict one path".
type Shared struct {
	*Port

	// busy is the cycle the engine's read datapath frees: the end of the
	// last access, its eviction included, as the memory port retired it.
	busy int64

	cfg      Config
	geo      tree.Geometry
	st       *stash.Stash
	pos      *posmap.Store
	policy   DupPolicy
	stats    Stats
	pl       *payloads // the engine's payload pool; nil unless functional
	remaps   *rng.Xoshiro
	dummies  *rng.Xoshiro // the leaves of timing-protection dummies
	a        uint64       // accesses per eviction
	accesses uint64       // accesses so far, every kind but eviction reads
	read     func(start int64, leaf, addr uint32, write bool) (forward, end int64, onChip, viaShadow bool)
	evict    func(start int64, leaf uint32) (readEnd, writeEnd int64)
	observer func(Event)

	// The PLB and the posmap blocks parked in its SRAM, which are neither
	// in the tree nor in the stash while resident; chain is the walk's
	// scratch.
	plb    *cache.Cache
	parked map[uint32]block.Meta
	chain  []uint32

	lastDone int64 // completion of the last request that reached the tree
	ema      int64 // smoothed duration of one such request

	pendingWrite []byte // payload for an in-flight WriteBlock (a pool buffer)

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

// NewShared validates cfg and builds the skeleton of an engine with
// slotsPerBucket slots per bucket. The engine seeds the initial labels,
// the remaps and the dummy leaves from streams of its own, and evicts
// every a accesses. read reads path-leaf from start for addr —
// NoAddr is a dummy, any other addr is served and remapped (Remap), and
// write marks a functional write, whose payload replaces the block's — and
// returns the cycle addr's data reached the LLC, the cycle the datapath
// frees, whether the data came from on-chip state and whether a tree
// shadow provided it. evict is the read-write phase on path-leaf from
// start; it returns the cycles its read and its write-back end. A nil
// policy is NopPolicy; one implementing GeometryBinder is bound here to
// the geometry and stash first.
func NewShared(cfg Config, slotsPerBucket int, policy DupPolicy, labels, remaps, dummies *rng.Xoshiro, a int,
	read func(start int64, leaf, addr uint32, write bool) (forward, end int64, onChip, viaShadow bool),
	evict func(start int64, leaf uint32) (readEnd, writeEnd int64)) (*Shared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := tree.NewGeometry(cfg.L, slotsPerBucket)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		policy = NopPolicy{}
	}
	s := &Shared{cfg: cfg, geo: geo, st: stash.New(cfg.StashCapacity), policy: policy,
		remaps: remaps, dummies: dummies, a: uint64(a), read: read, evict: evict, ema: 1,
		pools:      make([][]uint32, geo.Levels()),
		placed:     openaddr.New(geo.PathLen()),
		placedData: make([][]byte, 0, geo.PathLen()),
	}
	if s.Port, err = newPort(&s.cfg, geo, &s.stats); err != nil {
		return nil, err
	}
	if b, ok := policy.(GeometryBinder); ok {
		if err := b.BindGeometry(geo, s.st); err != nil {
			return nil, err
		}
	}
	if s.pos, err = newPosMap(&s.cfg, geo.NumLeaves(), labels); err != nil {
		return nil, err
	}
	entries := PLBBytes / cfg.BlockBytes
	if s.plb, err = cache.New(entries, 1, PLBWays); err != nil {
		return nil, fmt.Errorf("oram: PLB geometry: %w", err)
	}
	s.parked = make(map[uint32]block.Meta, entries)
	return s, nil
}

// Geometry returns the engine's tree geometry.
func (s *Shared) Geometry() tree.Geometry { return s.geo }

// Stats returns a copy of the accumulated counters.
func (s *Shared) Stats() Stats { return s.stats }

// Stash exposes the stash (the core package's policy inspects shadow
// candidates through it).
func (s *Shared) Stash() *stash.Stash { return s.st }

// NumDataBlocks returns the data address space size.
func (s *Shared) NumDataBlocks() int { return s.cfg.NumDataBlocks() }

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
	var labels [512]uint32 // a chunk at a time: a Label call per block re-derives every bit offset
	geo := s.geo           // a local copy stays in registers across the chunk loop
	for base, total := 0, s.pos.Hierarchy().TotalBlocks(); base < total; base += len(labels) {
		for i, label := range s.pos.Labels(uint32(base), labels[:min(len(labels), total-base)]) {
			m := block.Meta{Kind: block.Real, Addr: uint32(base + i), Label: label}
			lv := geo.L
			for ; lv >= 0; lv-- {
				if b := geo.BucketAt(label, lv); int(occ[b]) < z {
					slots[geo.SlotIndex(b, int(occ[b]))] = block.NewSlot(m)
					occ[b]++
					break
				}
			}
			if lv < 0 && s.st.Insert(stash.Entry{Meta: m}) == stash.Overflow {
				return fmt.Errorf("oram: initial placement overflowed the stash")
			}
		}
	}
	return nil
}

// Request is the one request path, every engine's: it serves one LLC miss
// presented at cycle now. It first settles the idle gap before now
// (advance), then serves addr through the shared head (stash-hit service,
// the request clock), the position-map walk and one access of addr,
// decides the outcome, charges eq. 1's data-access time and observes the
// request.
func (s *Shared) Request(now int64, addr uint32, write bool) Outcome {
	if int(addr) >= s.cfg.NumDataBlocks() {
		panic(fmt.Sprintf("oram: address %d outside the data space", addr))
	}
	s.advance(now)
	if out, hit, served := s.begin(now, addr, write); served {
		s.observeRequest(now, addr, write, out, hit == block.Shadow, 0, 0)
		return out
	}
	start := s.align(now)
	retires := s.retires
	walkEnd, fetched := s.walk(start, addr)
	forward, onChip, viaShadow := s.access(walkEnd, addr, write)
	if viaShadow {
		s.stats.ShadowForwards++ // per request: posmap fetches do not count
	}
	if onChip {
		s.stats.OnChipHits++
	}

	// Done is the completion of the work this request triggered: the read
	// datapath, plus — only when one of its accesses retired a write-back
	// (an eviction, or a Ring reshuffle) — the parked write-back still
	// draining behind it. A request that merely overlapped someone else's
	// write-back is not charged for it.
	out := Outcome{Start: start, Forward: forward, Done: s.busy, OnChip: onChip}
	if s.retires != retires {
		out.Done = s.completion(s.busy)
	}
	// Eq. 1 charges the request's datapath window to data-access time. The
	// serial engine's busy includes the write-back, so this matches
	// Done-Start there; the decoupled scheduler accounts a draining
	// write-back as background (DRI) work, keeping the decomposition
	// additive even when the next request's window overlaps the drain.
	s.stats.DataAccessCycles += s.busy - start
	// The typical request duration align's virtual-dummy signal compares
	// gaps against.
	s.lastDone = out.Done
	s.ema += (out.Done - out.Start - s.ema) / 8
	s.observeRequest(now, addr, write, out, viaShadow, fetched, walkEnd-start)
	return out
}

// advance settles the idle gap that closes when a request presents at
// now, before anything serves it: parked write-backs whose banks can
// finish inside the gap drain into it (the port's wbPump; the demand read
// keeps its priority), and under timing protection every unclaimed slot
// before now is filled with a dummy, so a stash hit at now comes after
// them, as it does in time, and its dummies reach the policy first.
func (s *Shared) advance(now int64) {
	s.wbPump(now)
	if s.cfg.TimingProtection {
		for slot := s.nextSlot(s.busy); slot < now; slot = s.nextSlot(s.busy) {
			s.dummy(slot)
		}
	}
}

// begin opens one LLC request: it counts it, feeds the Hot Address Cache,
// and serves it out of resident on-chip state when possible (the CAM
// lookup is effectively instant) — a real block always, a shadow for reads
// unless shadow hits are disabled. A write that only hits a shadow must
// still collect and supersede the tree copy, so it is not served; a
// functional write a real block served installs its payload. hit is the
// kind of the copy that served.
func (s *Shared) begin(now int64, addr uint32, write bool) (out Outcome, hit block.Kind, served bool) {
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
	if write && s.cfg.Functional {
		s.st.Update(addr, s.writeValue(addr))
	}
	return Outcome{Start: now, Forward: now + 1, Done: now + 1, StashHit: true, OnChip: true}, e.Meta.Kind, true
}

// writeValue produces the payload stored by a write in functional mode, a
// pool buffer the stash takes over: the data supplied through WriteBlock
// when present, otherwise a marker pattern (plain timing writes carry no
// payload of interest).
func (s *Shared) writeValue(addr uint32) []byte {
	if s.pendingWrite != nil {
		return s.pendingWrite
	}
	v := s.pl.get()
	clear(v)
	v[0] = byte(addr)
	return v
}

// align returns the cycle at which a real request presented at now may
// start, and tells the policy's DRI counter about it. Under timing
// protection the request takes the next slot (advance filled the ones
// before now); without it, a gap long enough to have fitted another
// request is the virtual dummy signal — the DRI was long, RD-Dup preferred
// (DESIGN.md §3, note 8).
func (s *Shared) align(now int64) int64 {
	start := max(now, s.busy)
	if s.cfg.TimingProtection {
		start = s.nextSlot(start)
	} else if s.stats.ORAMAccesses > 0 && start-s.lastDone > s.ema {
		s.policy.NoteORAMRequest(true)
	}
	s.policy.NoteORAMRequest(false)
	return start
}

func (s *Shared) nextSlot(t int64) int64 {
	r := s.cfg.RequestRate
	return (t + r - 1) / r * r
}

// access is the one data access, the walk's and the request's: the
// engine's read of addr's path, which remaps addr, then one tick of the
// access clock. It returns the cycle addr's data reached the LLC, whether
// it came from on-chip state and whether a tree shadow provided it; busy
// is then the cycle the datapath frees.
func (s *Shared) access(start int64, addr uint32, write bool) (forward int64, onChip, viaShadow bool) {
	leaf := s.pos.Label(addr)
	s.notePathRead(leaf, start)
	forward, end, onChip, viaShadow := s.read(start, leaf, addr, write)
	s.tick(end)
	return forward, onChip, viaShadow
}

// dummy is the timing-protection step at slot start: the engine's read of
// a random path, which serves nothing, then one tick of the access clock.
// It reaches the policy as a dummy request.
func (s *Shared) dummy(start int64) {
	s.stats.DummyAccesses++
	s.policy.NoteORAMRequest(true)
	leaf := uint32(s.dummies.Uint64n(uint64(s.geo.NumLeaves())))
	s.notePathRead(leaf, start)
	_, end, _, _ := s.read(start, leaf, NoAddr, false)
	if mc := s.mc; mc != nil && mc.Trace != nil {
		mc.Trace.Span("dummy", "oram", tidBackground, start, end, map[string]any{"leaf": leaf})
	}
	s.tick(end)
}

// tick counts one access, whose read freed the datapath at end, and sets
// busy. Every a-th access — real, posmap and dummy alike (DESIGN.md §3,
// note 5), so under timing protection the schedule is a function of the
// slot count alone — is followed by the engine's evict of the next
// reverse-lexicographic leaf, which the memory port retires (Port.Retire).
func (s *Shared) tick(end int64) {
	s.accesses++
	if s.accesses%s.a == 0 {
		leaf := s.geo.ReverseLexLeaf(s.stats.EvictionPhases)
		s.stats.EvictionPhases++
		s.notePathRead(leaf, end)
		readEnd, writeEnd := s.evict(end, leaf)
		if mc := s.mc; mc != nil && mc.Trace != nil {
			mc.Trace.Span("evict", "oram", tidBackground, end, writeEnd, map[string]any{"leaf": leaf})
		}
		end = s.Retire(leaf, readEnd, writeEnd)
	}
	s.busy = end
}

// Reshuffle records an in-place rewrite of bucket b of path-leaf, read
// from start to readEnd and written back by writeEnd (Ring ORAM's early
// reshuffle) — the observer's bucket read and write, Stats.Reshuffles, the
// reshuffles counter and trace span — and retires it (Port.Retire).
func (s *Shared) Reshuffle(b int, leaf uint32, start, readEnd, writeEnd int64) int64 {
	s.stats.Reshuffles++
	s.Emit(EvBucketRead, uint32(b), start)
	s.Emit(EvBucketWrite, uint32(b), readEnd)
	if mc := s.mc; mc != nil {
		mc.Count("reshuffles", 1)
		if mc.Trace != nil {
			mc.Trace.Span("reshuffle", "oram", tidBackground, start, writeEnd, map[string]any{"bucket": b})
		}
	}
	return s.Retire(leaf, readEnd, writeEnd)
}

// notePathRead records one path read of leaf presented at start, whatever
// its kind: the observer's event and Stats.ORAMAccesses.
func (s *Shared) notePathRead(leaf uint32, start int64) {
	s.Emit(EvPathRead, leaf, start)
	s.stats.ORAMAccesses++
}

// Drain returns the cycle at which all work completes, after flushing the
// write-backs the memory port still holds (there will be no further read
// to slot them around). Idempotent.
func (s *Shared) Drain() int64 {
	s.wbFlush(s.busy)
	return s.completion(s.busy)
}

// Remap moves addr to a fresh random path after the engine's read
// (Step-3) and makes sure the block reached the stash: the invariant
// guarantees it was on the path or in the stash, so a miss here means an
// earlier overflow dropped it, and it is re-created and counted. A
// position-map block, which only the walk fetches, then parks in the PLB: after
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

// Collect moves one block read out of the tree into the stash, labelled
// from the position map the image agrees with; a shadow is ranked by the
// policy's retention priority. A real block the stash cannot take is an
// overflow. The caller skips dummy slots. In functional mode data is the
// block's payload, which the stash takes over (nil is the zero block).
func (s *Shared) Collect(sl block.Slot, data []byte) {
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
// write; the others hold nothing. O(tree size); for tests, not the hot
// path.
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
		if sl.Kind() == block.Dummy || live != nil && !live(i) {
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

	for addr := uint32(0); int(addr) < total; addr++ {
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
