package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"shadowblock/internal/block"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// drainPolicy builds a policy whose queues can be exercised directly.
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

// queued counts q's nodes over all its lists.
func queued(q *candQueue) int {
	n := 0
	for _, l := range q.lists {
		n += len(l)
	}
	return n
}

// TestQueueDrainsInPriorityOrder: with candidates that pass the rules at
// level 0 (the real copy one level below, every path through the root),
// repeated popValid calls must drain the queue highest priority first —
// exactly the selection a binary heap would make.
func TestQueueDrainsInPriorityOrder(t *testing.T) {
	p, _ := drainPolicy(t)
	f := func(counts []uint16) bool {
		p.reset()
		want := make([]int64, 0, len(counts))
		for i, cnt := range counts {
			if i >= 128 {
				break
			}
			idx := p.newCandidate(uint32(i))
			c := &p.arena[idx]
			c.srcLevel = 1 // level 0 < srcLevel, and isect 0 >= level 0
			c.count = uint64(cnt)
			c.seq = p.seq
			p.seq++
			p.put(&p.hd, idx)
			want = append(want, hdPrio(c))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		for _, wp := range want {
			c := p.popValid(&p.hd, 0)
			if c == nil || hdPrio(c) != wp {
				return false
			}
			if c.hdPos != unqueued {
				return false // consumed candidates must be dequeued
			}
		}
		return queued(&p.hd) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReprioritisesInPlace: re-queuing a queued candidate must replace
// its old priority, not add a second node — whether it is still waiting
// for its level or already active.
func TestQueueReprioritisesInPlace(t *testing.T) {
	p, _ := drainPolicy(t)
	for _, active := range []bool{false, true} {
		p.reset()
		idx := p.newCandidate(9)
		c := &p.arena[idx]
		c.srcLevel = 1
		c.count = 10
		if active {
			p.hd.frontier = 0 // the write has reached level 0 already
		}
		p.put(&p.hd, idx)
		// Re-queue at a lower priority: the node is overwritten in place.
		c.count = 5
		p.put(&p.hd, idx)
		if n := queued(&p.hd); n != 1 {
			t.Fatalf("active=%v: re-queue grew the queue to %d nodes", active, n)
		}
		got := p.popValid(&p.hd, 0)
		if got == nil || got.count != 5 {
			t.Fatalf("active=%v: popValid returned %+v, want the re-prioritised candidate", active, got)
		}
		if n := queued(&p.hd); n != 0 {
			t.Fatalf("active=%v: %d nodes left after consuming the only candidate", active, n)
		}
	}
}

// TestQueuePositionsAreIndependent: consuming from one queue must leave the
// candidate queued in the other, as the RD and HD queues are separate.
func TestQueuePositionsAreIndependent(t *testing.T) {
	p, _ := drainPolicy(t)
	p.reset()
	idx := p.newCandidate(3)
	c := &p.arena[idx]
	c.srcLevel = 4
	c.effLevel = 4
	c.isect = 10
	c.count = 2
	p.push(idx)
	want := queuePos{list: 1 + 3, idx: 0} // waiting for level 3 in both
	if c.rdPos != want || c.hdPos != want {
		t.Fatalf("positions = (%+v,%+v), want %+v in both", c.rdPos, c.hdPos, want)
	}
	if got := p.popValid(&p.hd, 3); got == nil {
		t.Fatal("HD consume failed")
	}
	if c.hdPos != unqueued {
		t.Fatalf("hdPos = %+v after consume, want unqueued", c.hdPos)
	}
	if c.rdPos != want || queued(&p.rd) != 1 {
		t.Fatal("HD consume disturbed the RD queue")
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

// refPick is the selection popValid made before candidates were filed by
// activation level, kept as the oracle: a linear scan of every candidate
// for the highest priority among those passing Rules 1–2 at level (every
// candidate is queued in both queues at a SelectDup, because the test
// re-files each pick through NoteEvict as the engines do).
func refPick(p *Policy, level int, useHD bool) *candidate {
	prio := rdPrio
	if useHD {
		prio = hdPrio
	}
	var best *candidate
	for i := range p.arena {
		c := &p.arena[i]
		if level < c.srcLevel && (useHD || level < c.effLevel) &&
			p.geo.IntersectLevel(c.label, p.leaf) >= level &&
			(best == nil || prio(c) > prio(best)) {
			best = c
		}
	}
	return best
}

// TestPopValidMatchesReference drives whole path writes through the
// policy's public calls — stash shadows seeding the queues, real blocks
// placed leaf to root on their paths (some re-placing an address already a
// candidate), a random partition so both queues serve, and every pick
// re-filed by NoteEvict — and checks each SelectDup against refPick.
func TestPopValidMatchesReference(t *testing.T) {
	geo, err := tree.NewGeometry(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var picks [2]int // RD, HD
	for write := 0; write < 300; write++ {
		st := stash.New(200)
		p, err := newBound(Static(0), geo, st)
		if err != nil {
			t.Fatal(err)
		}
		p.partition = r.Intn(geo.L + 2)
		const space = 96
		for i := 0; i < r.Intn(60); i++ {
			addr := uint32(r.Intn(space))
			st.Insert(stash.Entry{Meta: block.Meta{Kind: block.Shadow, Addr: addr,
				Label: uint32(r.Intn(int(geo.NumLeaves()))), SrcLevel: uint8(1 + r.Intn(geo.L))}})
		}
		for i := 0; i < r.Intn(40); i++ {
			p.NoteLLCMiss(uint32(r.Intn(space)))
		}
		leaf := uint32(r.Intn(int(geo.NumLeaves())))
		p.BeginPathWrite(leaf)
		for lv := geo.L; lv >= 0; lv-- {
			for s := 0; s < geo.Z; s++ {
				if r.Intn(3) == 0 {
					// A real block on this path: its label shares the
					// path's top lv levels.
					label := leaf ^ uint32(r.Intn(1<<(geo.L-lv)))
					p.NoteEvict(block.Meta{Kind: block.Real, Addr: uint32(r.Intn(space)), Label: label}, lv)
					continue
				}
				want := refPick(p, lv, lv < p.partition)
				m, ok := p.SelectDup(leaf, lv)
				switch {
				case ok != (want != nil):
					t.Fatalf("write %d level %d: picked=%v, reference picked=%v", write, lv, ok, want != nil)
				case ok && m.Addr != want.addr:
					t.Fatalf("write %d level %d: picked %d, reference picked %d", write, lv, m.Addr, want.addr)
				case ok:
					if lv < p.partition {
						picks[1]++
					} else {
						picks[0]++
					}
					p.NoteEvict(m, lv)
				}
			}
		}
		p.EndPathWrite()
	}
	if picks[0] < 100 || picks[1] < 100 {
		t.Fatalf("only %d RD and %d HD picks: the drive does not exercise both queues", picks[0], picks[1])
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
	for i := range reals {
		lv := geo.L - i/geo.Z
		reals[i] = block.Meta{Kind: block.Real, Addr: uint32(100 + r.Intn(300)),
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
