package core

import (
	"sort"
	"testing"
	"testing/quick"

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

// TestQueueDrainsInPriorityOrder: with a validity predicate that accepts
// everything (level -1 is below any real copy and intersects any path),
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
			c.srcLevel = 1 // any slot at level -1 < srcLevel qualifies
			c.count = uint64(cnt)
			c.seq = p.seq
			p.seq++
			p.hd.put(idx, &c.hdPos, hdPrio(c))
			want = append(want, hdPrio(c))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		for _, wp := range want {
			c := p.popValid(&p.hd, -1, true)
			if c == nil || hdPrio(c) != wp {
				return false
			}
			if c.hdPos != -1 {
				return false // consumed candidates must be dequeued
			}
		}
		return len(p.hd.nodes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReprioritisesInPlace: re-queuing a queued candidate must replace
// its old priority, not add a second node.
func TestQueueReprioritisesInPlace(t *testing.T) {
	p, _ := drainPolicy(t)
	p.reset()
	idx := p.newCandidate(9)
	c := &p.arena[idx]
	c.srcLevel = 1
	c.count = 10
	p.hd.put(idx, &c.hdPos, hdPrio(c))
	// Re-queue at a lower priority: the node is overwritten in place.
	c.count = 5
	p.hd.put(idx, &c.hdPos, hdPrio(c))
	if len(p.hd.nodes) != 1 {
		t.Fatalf("re-queue grew the queue to %d nodes", len(p.hd.nodes))
	}
	got := p.popValid(&p.hd, -1, true)
	if got == nil || got.count != 5 {
		t.Fatalf("popValid returned %+v, want the re-prioritised candidate", got)
	}
	if len(p.hd.nodes) != 0 {
		t.Fatalf("%d nodes left after consuming the only candidate", len(p.hd.nodes))
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
	c.count = 2
	p.push(idx)
	if c.rdPos != 0 || c.hdPos != 0 {
		t.Fatalf("positions = (%d,%d), want (0,0)", c.rdPos, c.hdPos)
	}
	if got := p.popValid(&p.hd, -1, true); got == nil {
		t.Fatal("HD consume failed")
	}
	if c.hdPos != -1 {
		t.Fatalf("hdPos = %d after consume, want -1", c.hdPos)
	}
	if c.rdPos != 0 || len(p.rd.nodes) != 1 {
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

// TestPopValidMatchesReference checks popValid against a straight
// re-derivation: the survivor must be the highest-priority candidate that
// satisfies Rules 1–2 at the probed slot, and every rejected candidate must
// remain queued afterwards.
func TestPopValidMatchesReference(t *testing.T) {
	p, geo := drainPolicy(t)
	f := func(raw []uint16, leaf uint32, lvl uint8) bool {
		leaf &= geo.NumLeaves() - 1
		level := int(lvl) % (geo.L + 1)
		p.reset()
		for i, r := range raw {
			if i >= 64 {
				break
			}
			idx := p.newCandidate(uint32(i))
			c := &p.arena[idx]
			c.label = uint32(r) & (geo.NumLeaves() - 1)
			c.isect = geo.IntersectLevel(c.label, leaf)
			c.srcLevel = int(r>>4) % (geo.L + 1)
			c.effLevel = c.srcLevel
			c.count = uint64(r % 7)
			c.seq = p.seq
			p.seq++
			p.push(idx)
		}
		for _, useHD := range []bool{false, true} {
			q := &p.rd
			prio := rdPrio
			if useHD {
				q = &p.hd
				prio = hdPrio
			}
			// Reference: best candidate by priority among valid ones.
			var want *candidate
			for i := range p.arena {
				c := &p.arena[i]
				if *q.posOf(c) < 0 {
					continue
				}
				if level < c.srcLevel && (useHD || level < c.effLevel) &&
					geo.IntersectLevel(c.label, leaf) >= level {
					if want == nil || prio(c) > prio(want) {
						want = c
					}
				}
			}
			before := len(q.nodes)
			got := p.popValid(q, level, useHD)
			if got != want {
				return false
			}
			// Everything except the consumed winner must still be queued,
			// with positions that agree with the node array.
			wantLen := before
			if got != nil {
				wantLen--
			}
			if len(q.nodes) != wantLen {
				return false
			}
			for i, n := range q.nodes {
				if *q.posOf(&p.arena[n.cand]) != int32(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
