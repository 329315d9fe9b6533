package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"shadowblock/internal/block"
	"shadowblock/internal/metrics"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// drainPolicy builds a policy whose queue can be exercised directly.
func drainPolicy(t *testing.T) (*Policy, tree.Geometry) {
	t.Helper()
	geo, err := tree.NewGeometry(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newBound(Static(5), geo, stash.New(150))
	if err != nil {
		t.Fatal(err)
	}
	return p, geo
}

// addCandidate appends an unfiled candidate for addr to the arena.
func addCandidate(p *Policy, addr uint32) (int32, *candidate) {
	p.arena = append(p.arena, candidate{addr: addr, seq: p.seq, at: -1, wait: -1})
	p.seq++
	idx := int32(len(p.arena) - 1)
	return idx, &p.arena[idx]
}

// queued counts the queue's live entries: heap nodes, count-0 candidates,
// and list entries whose candidate still waits at that list's level.
func queued(p *Policy) int {
	n := len(p.q.heap)
	for i := range p.arena {
		if p.arena[i].zero {
			n++
		}
	}
	for lv, l := range p.q.waiting {
		for _, idx := range l {
			if c := &p.arena[idx]; c.wait == int32(lv) && c.at < 0 && !c.zero {
				n++
			}
		}
	}
	return n
}

// takeTop removes and returns the queue's top, its pick.
func takeTop(p *Policy) *candidate {
	idx := p.q.top()
	if idx < 0 {
		return nil
	}
	p.unfile(idx)
	return &p.arena[idx]
}

// TestQueueDrainsInPriorityOrder: with candidates that pass the rules at
// level 0 (the real copy one level below, every path through the root),
// repeatedly taking the top must drain the HD-queue highest priority first
// — exactly the order a scan for the maximum would give — with every third
// candidate at count 0, so hot and count-0 candidates interleave.
func TestQueueDrainsInPriorityOrder(t *testing.T) {
	p, _ := drainPolicy(t)
	f := func(counts []uint16) bool {
		p.reset()
		p.q.reset(byCount, 0, p.geo.Levels())
		want := make([]int64, 0, len(counts))
		for i, cnt := range counts {
			if i >= 128 {
				break
			}
			if i%3 == 0 {
				cnt = 0
			}
			idx, c := addCandidate(p, uint32(i))
			c.srcLevel = 1 // level 0 < srcLevel, and isect 0 >= level 0
			c.count = uint64(cnt)
			p.file(idx)
			want = append(want, hdPrio(c))
		}
		p.reach(0)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		for _, wp := range want {
			c := takeTop(p)
			if c == nil || hdPrio(c) != wp {
				return false
			}
			if c.at != -1 || c.wait != -1 || c.zero {
				return false // consumed candidates must be dequeued
			}
		}
		return queued(p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReprioritisesInPlace: refiling a queued candidate must replace
// its old priority, not leave a second live entry — whether it is still
// waiting for its level or already eligible, and whether its count stays
// hot or drops to 0.
func TestQueueReprioritisesInPlace(t *testing.T) {
	p, _ := drainPolicy(t)
	for _, active := range []bool{false, true} {
		for _, to := range []uint64{5, 0} {
			p.reset()
			p.q.reset(byCount, 0, p.geo.Levels())
			idx, c := addCandidate(p, 9)
			c.srcLevel = 1
			c.count = 10
			if active {
				p.reach(0) // the write has reached level 0 already
			}
			p.file(idx)
			// Refile at a lower priority: the old entry is overwritten or dead.
			c.count = to
			p.file(idx)
			if n := queued(p); n != 1 {
				t.Fatalf("active=%v count=%d: refiling left %d live entries", active, to, n)
			}
			p.reach(0)
			got := takeTop(p)
			if got == nil || got.count != to {
				t.Fatalf("active=%v count=%d: the top is %+v, want the re-prioritised candidate", active, to, got)
			}
			if n := queued(p); n != 0 || p.q.top() >= 0 {
				t.Fatalf("active=%v count=%d: %d entries left after consuming the only candidate", active, to, n)
			}
		}
	}
}

// TestQueuePositionsAreIndependent: the RD-Dup and HD-Dup queues are
// separate, so RD picks above the partition must not use the candidate up
// for HD-Dup below it. Each RD pick raises its effective level to the
// slot's, until no RD level improves on it; the HD-queue the write
// switches to at the partition offers it all the way to the root.
func TestQueuePositionsAreIndependent(t *testing.T) {
	p, geo := drainPolicy(t) // partition 5
	st := p.st
	st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Shadow, Addr: 3, Label: 0, SrcLevel: 7}})
	p.SetMetrics(metrics.New(metrics.Options{}))
	p.BeginPathWrite(0)
	for lv := geo.L; lv >= 0; lv-- {
		m, ok := p.SelectDup(0, lv)
		switch {
		case lv > 6:
			// Above Rule-2's bound.
			if ok {
				t.Fatalf("level %d: picked block %d, want none", lv, m.Addr)
			}
		case !ok || m.Addr != 3:
			t.Fatalf("level %d: picked=%v (%v), want block 3", lv, ok, m)
		default:
			if (lv < p.Partition()) != (p.q.kind == byCount) {
				t.Fatalf("level %d served by the wrong queue", lv)
			}
			p.NoteEvict(m, lv)
		}
	}
	p.EndPathWrite()
	if rd, hd := shadowCounts(p); rd != 2 || hd != 5 {
		t.Fatalf("shadow counts (rd, hd) = (%d, %d), want (2, 5)", rd, hd)
	}
}

func TestPriorityComposition(t *testing.T) {
	// Deeper level always outranks any sequence tie-break.
	deep := &candidate{effLevel: 10, seq: 0}
	shallow := &candidate{effLevel: 9, seq: 1 << 20}
	if rdPrio(deep) <= rdPrio(shallow) {
		t.Fatal("sequence outranked level in the RD queue")
	}
	// Later eviction wins ties (the paper's intra-bucket order rule).
	a := &candidate{effLevel: 10, seq: 1}
	b := &candidate{effLevel: 10, seq: 2}
	if rdPrio(b) <= rdPrio(a) {
		t.Fatal("earlier eviction outranked later at equal level")
	}
	hot := &candidate{count: 5, seq: 0}
	cold := &candidate{count: 4, seq: 1 << 19}
	if hdPrio(hot) <= hdPrio(cold) {
		t.Fatal("sequence outranked count in the HD queue")
	}
}

// refCand is a candidate of refModel.
type refCand struct {
	addr, label        uint32
	srcLevel, effLevel int
	count              uint64
	seq                int
}

// refModel is the duplication queues as the paper states them (§V-B) and
// as the policy first implemented them: every stash shadow and every block
// the write places is a candidate in both queues, found by address, and a
// selection scans them all. It shares no state with Policy but its Hot
// Address Cache counts.
type refModel struct {
	geo   tree.Geometry
	leaf  uint32
	cands []refCand
	seq   int
}

func (r *refModel) begin(st *stash.Stash, count func(uint32) uint64, leaf uint32) {
	r.leaf, r.cands, r.seq = leaf, r.cands[:0], 0
	st.ForEachShadow(func(e stash.Entry) {
		lv := int(e.Meta.SrcLevel)
		r.cands = append(r.cands, refCand{e.Meta.Addr, e.Meta.Label, lv, lv, count(e.Meta.Addr), r.seq})
		r.seq++
	})
}

func (r *refModel) find(addr uint32) *refCand {
	for i := range r.cands {
		if r.cands[i].addr == addr {
			return &r.cands[i]
		}
	}
	return nil
}

func (r *refModel) note(m block.Meta, level int, count func(uint32) uint64) {
	c := r.find(m.Addr)
	if m.Kind == block.Shadow {
		if c != nil {
			c.effLevel = min(c.effLevel, level)
			c.count >>= 1
		}
		return
	}
	if c == nil {
		r.cands = append(r.cands, refCand{addr: m.Addr})
		c = &r.cands[len(r.cands)-1]
	}
	*c = refCand{m.Addr, m.Label, level, level, count(m.Addr), r.seq}
	r.seq++
}

// refPick is the oracle: a linear scan of every candidate for the highest
// priority among those passing Rules 1–2 (and, for RD-Dup, improving the
// effective level) at level.
func refPick(r *refModel, level int, useHD bool) *refCand {
	prio := func(c *refCand) int64 { return int64(c.effLevel)<<32 | int64(c.seq) }
	if useHD {
		prio = func(c *refCand) int64 { return int64(c.count)<<20 | int64(c.seq) }
	}
	var best *refCand
	for i := range r.cands {
		c := &r.cands[i]
		if level < c.srcLevel && (useHD || level < c.effLevel) &&
			r.geo.IntersectLevel(c.label, r.leaf) >= level &&
			(best == nil || prio(c) > prio(best)) {
			best = c
		}
	}
	return best
}

// TestPopValidMatchesReference drives path writes through the policy's
// public calls and checks every SelectDup against refPick. Per tree height
// (L = 4, 12, 18) one policy runs 300 writes over a stash of up to 150
// random shadows, with a Hot Address Cache touched so that count-0 and hot
// candidates mix. Each write draws its partition from 0, a mid-tree level
// and L+1, and is either a whole path (real blocks placed leaf to root on
// their paths, most fresh as on Path, some the real copy of a stash shadow)
// or one bucket that first keeps its reals, some with a shadow in the
// stash, as Ring's reshuffle does. Every pick is noted right after, as the
// engines do. Midway through each write the test checks that the
// partition cannot move.
func TestPopValidMatchesReference(t *testing.T) {
	for _, l := range []int{4, 12, 18} {
		geo, err := tree.NewGeometry(l, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(5 + l)))
		st := stash.New(200)
		p, err := newBound(Dynamic(3), geo, st) // the test sets each write's partition
		if err != nil {
			t.Fatal(err)
		}
		ref := &refModel{geo: geo}
		const space = 1 << 10
		for i := 0; i < 400; i++ {
			hot := uint32(r.Intn(space / 8))
			p.NoteLLCMiss(hot)
			p.NoteLLCMiss(hot) // a second touch admits it past the doorkeeper
		}
		var rdPicks, hdPicks, hotPicks, seededReals, switches int
		for write := 0; write < 300; write++ {
			st = stash.New(200)
			p.st = st
			for i := r.Intn(180); i > 0; i-- {
				st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Shadow, Addr: uint32(r.Intn(space)),
					Label: uint32(r.Intn(int(geo.NumLeaves()))), SrcLevel: uint8(1 + r.Intn(geo.L))}})
			}
			var shadows []uint32
			st.ForEachShadow(func(e stash.Entry) { shadows = append(shadows, e.Meta.Addr) })
			p.partition = [...]int{0, 1 + r.Intn(geo.L), geo.L + 1}[r.Intn(3)]
			leaf := uint32(r.Intn(int(geo.NumLeaves())))
			count := p.hac.Count
			p.BeginPathWrite(leaf)
			ref.begin(st, count, leaf)

			noted := map[uint32]bool{}
			placeReal := func(lv int) {
				addr := uint32(space + r.Intn(space)) // never a stash shadow
				if len(shadows) > 0 && r.Intn(3) == 0 {
					addr = shadows[r.Intn(len(shadows))]
				}
				if noted[addr] {
					return // a block has one real copy: placed once per write
				}
				if _, ok := st.Lookup(addr); ok {
					seededReals++
				}
				noted[addr] = true
				m := block.Meta{Kind: block.Real, Addr: addr, Label: leaf ^ uint32(r.Intn(1<<(geo.L-lv)))}
				p.NoteEvict(m, lv)
				ref.note(m, lv, count)
			}
			sel := func(lv int) {
				useHD := lv < p.partition
				want := refPick(ref, lv, useHD)
				kind := p.q.kind
				m, ok := p.SelectDup(leaf, lv)
				switch {
				case ok != (want != nil):
					t.Fatalf("L=%d write %d level %d: picked=%v, reference picked=%v", l, write, lv, ok, want != nil)
				case ok && m.Addr != want.addr:
					t.Fatalf("L=%d write %d level %d: picked %d, reference picked %d", l, write, lv, m.Addr, want.addr)
				case ok:
					if useHD {
						hdPicks++
						if want.count > 0 {
							hotPicks++
						}
					} else {
						rdPicks++
					}
					p.NoteEvict(m, lv)
					ref.note(m, lv, count)
				}
				if kind != p.q.kind {
					switches++
				}
			}

			if r.Intn(4) == 0 {
				lv := r.Intn(geo.L + 1)
				k := r.Intn(geo.Z + 1)
				for s := 0; s < k; s++ {
					placeReal(lv)
				}
				for s := k; s < geo.Z; s++ {
					sel(lv)
				}
			} else {
				for lv := geo.L; lv >= 0; lv-- {
					for s := 0; s < geo.Z; s++ {
						if r.Intn(3) == 0 {
							placeReal(lv)
						} else {
							sel(lv)
						}
					}
					if lv == geo.L/2 {
						assertPartitionHolds(t, p)
					}
				}
			}
			p.EndPathWrite()
		}
		t.Logf("L=%d: %d RD picks, %d HD picks (%d hot), %d reals of stash shadows, %d switches to the HD-queue",
			l, rdPicks, hdPicks, hotPicks, seededReals, switches)
		if rdPicks < 100 || hdPicks < 100 || hotPicks < 20 || seededReals < 20 || switches < 20 {
			t.Fatalf("L=%d: the drive does not exercise both queues, hot picks, stash-shadow reals and queue switches", l)
		}
	}
}

// assertPartitionHolds checks, inside a path write, that the DRI counter
// cannot move the partition: NoteORAMRequest panics and leaves it alone.
func assertPartitionHolds(t *testing.T, p *Policy) {
	t.Helper()
	before := p.Partition()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NoteORAMRequest inside a path write did not panic")
			}
		}()
		p.NoteORAMRequest(false)
	}()
	if p.Partition() != before {
		t.Fatalf("partition moved inside a path write: %d -> %d", before, p.Partition())
	}
}

// TestSelectDupRejectsRisingLevel pins the DupPolicy contract the queues
// rely on: within one path write, slot levels never increase.
func TestSelectDupRejectsRisingLevel(t *testing.T) {
	p, geo := drainPolicy(t)
	p.BeginPathWrite(0)
	p.SelectDup(0, 3)
	p.SelectDup(0, 3) // equal levels are fine (several slots per bucket)
	defer func() {
		if recover() == nil {
			t.Fatal("SelectDup at a deeper level than the previous slot did not panic")
		}
	}()
	p.SelectDup(0, geo.L)
}

// TestShadowNoteFollowsItsPick pins the other half of the contract: the
// shadow SelectDup returns is noted before the next selection, and no
// other shadow is noted.
func TestShadowNoteFollowsItsPick(t *testing.T) {
	pick := func(t *testing.T) (*Policy, block.Meta) {
		p, _ := drainPolicy(t)
		p.st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Shadow, Addr: 3, SrcLevel: 4}})
		p.BeginPathWrite(0)
		m, ok := p.SelectDup(0, 3)
		if !ok {
			t.Fatal("no pick")
		}
		return p, m
	}
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	p, _ := pick(t)
	mustPanic(t, "a second SelectDup before the pick's note", func() { p.SelectDup(0, 3) })
	p, m := pick(t)
	m.Addr++
	mustPanic(t, "a note of a shadow that was not picked", func() { p.NoteEvict(m, 3) })
	p, m = pick(t)
	p.NoteEvict(m, 3)
	if m2, ok := p.SelectDup(0, 2); !ok || m2.Addr != m.Addr {
		t.Fatalf("after the note the count-0 pick is not re-picked: %v %v", m2, ok)
	}
}

// TestPathWriteZeroAlloc: a whole path write through the policy — queue
// seeding from stash shadows, real placements, selections, the per-write
// reset — allocates nothing once the policy is bound.
func TestPathWriteZeroAlloc(t *testing.T) {
	geo, err := tree.NewGeometry(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := stash.New(200)
	p, err := newBound(Static(4), geo, st)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Shadow, Addr: uint32(i),
			Label: uint32(r.Intn(int(geo.NumLeaves()))), SrcLevel: uint8(1 + r.Intn(geo.L))}})
		p.NoteLLCMiss(uint32(r.Intn(200)))
	}
	const leaf = 77
	reals := make([]block.Meta, geo.PathLen())
	for i, a := range r.Perm(300)[:len(reals)] {
		lv := geo.L - i/geo.Z
		reals[i] = block.Meta{Kind: block.Real, Addr: uint32(100 + a),
			Label: leaf ^ uint32(r.Intn(1<<(geo.L-lv)))}
	}
	got := testing.AllocsPerRun(100, func() {
		p.BeginPathWrite(leaf)
		for i, m := range reals {
			lv := geo.L - i/geo.Z
			if i%2 == 0 {
				p.NoteEvict(m, lv)
			} else if d, ok := p.SelectDup(leaf, lv); ok {
				p.NoteEvict(d, lv)
			}
		}
		p.EndPathWrite()
	})
	if got != 0 {
		t.Fatalf("%.1f allocs per path write, want 0", got)
	}
}
