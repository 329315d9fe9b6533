package core

// The RD-queue and HD-queue (§V-B) are priority queues over duplication
// candidates, and the only selection a path write needs is "the
// highest-priority candidate that passes Rules 1–2 at this slot".
//
// Whether a candidate passes depends on the slot only through upper bounds
// on its level: Rule-1 (its path runs through the bucket: level <= isect),
// Rule-2 (strictly above the real copy: level <= srcLevel-1) and, for
// RD-Dup, a strict improvement of the effective level (level <=
// effLevel-1). The smallest bound is the candidate's activation level in
// that queue. A path write offers slots at non-increasing levels (the
// oram.DupPolicy contract; SelectDup panics otherwise), so once the write
// reaches a candidate's activation level the candidate stays eligible for
// the rest of the write, until a note changes its bounds.
//
// One queue serves a write at a time. The partition cannot move inside a
// write (NoteORAMRequest panics there) and slot levels never rise, so the
// slots at levels >= P all go to RD-Dup and the ones below P all go to
// HD-Dup: the write starts on the RD-queue and, at its first slot below
// P, refiles every candidate once under HD-Dup's bound and priority. With
// P at L+1 — where dynamic partitioning settles on the workloads measured
// so far — the write is on the HD-queue from the start, and with P at 0
// it never leaves the RD-queue. A candidate is filed only where the
// current queue can still serve it: an RD activation level below P never
// is, so such a candidate waits nowhere until the HD-queue takes over.
//
// The queue files candidates by activation level. Those the write has
// reached are eligible; the rest wait for their level and become eligible
// when a selection reaches it. Priorities never tie (the sequence number is
// unique per candidate), so the queue's top is exactly the pick a scan of
// every eligible candidate would make. The RD-queue keeps its eligible
// candidates in a binary max-heap on priority, and files the waiting ones
// in one list per level. The HD-queue does the same with its hot
// candidates, but a count-0 candidate (most of them) ranks by its sequence
// number alone and outranks no hot one, so for those it keeps only the
// latest per waiting level and the latest eligible: filing one is a
// comparison, and so is a level joining. Only taking the latest away — a
// real placement of a block whose shadow is in the stash, which Ring's
// reshuffle makes — costs a rescan of the arena.
//
// SelectDup returns the top and leaves it in place; the shadow note that
// follows (the DupPolicy contract puts it right after the pick) updates it
// there. An HD pick only halves its count: a count-0 pick is untouched and
// stays the top until a later or hotter candidate becomes eligible (DESIGN.md
// §7 finding 11), and a hot one sifts down, or joins the count-0
// candidates once its count reaches 0. An RD pick lowers the
// candidate's effective level to the slot's, so it leaves the heap to wait
// for the level below.
//
// The heap and the lists hold indices into the policy's per-write arena
// and keep their capacity across writes, so a path write allocates nothing
// once the policy is warm. Refiling a waiting candidate leaves its old
// list entry behind: an entry joins the heap only if its candidate still
// waits in the lists at that entry's level.

type queueKind uint8

const (
	byLevel queueKind = iota // RD-queue: deepest effective level first
	byCount                  // HD-queue: highest access count first
)

type heapNode struct {
	prio int64
	cand int32 // index into the policy's candidate arena
}

// candQueue is the queue serving the current path write.
type candQueue struct {
	kind queueKind
	// floor is the lowest level the queue serves in this write: P for the
	// RD-queue, 0 for the HD-queue. Nothing waits for a level below it.
	floor int
	// frontier is the lowest level this write has selected at (L+1 before
	// the first selection): every candidate filed for a level at or above
	// it is eligible.
	frontier int
	heap     []heapNode // eligible candidates, but the HD-queue's count-0 ones
	waiting  [][]int32  // waiting[a]: candidates that become eligible at level a
	// The HD-queue's count-0 candidates: the latest of those waiting for
	// each level, and the latest eligible one; -1 for none.
	zeroWait []int32
	zeroTop  int32
}

// reset empties the queue and makes it a queue of the given kind for a
// write over a tree with the given number of levels.
func (q *candQueue) reset(kind queueKind, floor, levels int) {
	q.kind, q.floor, q.frontier = kind, floor, levels
	q.heap = q.heap[:0]
	for i := range q.waiting {
		q.waiting[i] = q.waiting[i][:0]
		q.zeroWait[i] = -1
	}
	q.zeroTop = -1
}

// top returns the highest-priority eligible candidate, -1 for none: the
// heap's root, and failing that (the HD-queue's hot candidates outrank
// every count-0 one) the latest eligible count-0 candidate.
func (q *candQueue) top() int32 {
	if len(q.heap) > 0 {
		return q.heap[0].cand
	}
	return q.zeroTop
}

// activation returns the highest level at which c passes this queue's
// rules; negative when it passes at none.
func (q *candQueue) activation(c *candidate) int {
	if q.kind == byLevel {
		return int(min(c.bound, c.effLevel-1))
	}
	return int(c.bound)
}

func (q *candQueue) prio(c *candidate) int64 {
	if q.kind == byLevel {
		return rdPrio(c)
	}
	return hdPrio(c)
}

// file files candidate idx under its current bounds and priority: as
// eligible when the write has already reached its activation level,
// otherwise as waiting for that level, and nowhere when no level the queue
// serves can take it. A hot candidate already in the heap that stays there
// is re-prioritised in place.
func (p *Policy) file(idx int32) {
	q := &p.q
	c := &p.arena[idx]
	a := q.activation(c)
	zero := q.kind == byCount && c.count == 0
	if c.at >= 0 || c.zero {
		if c.at >= 0 && a >= q.frontier && !zero {
			q.heap[c.at].prio = q.prio(c)
			p.fix(int(c.at))
			return
		}
		p.unfile(idx)
	}
	switch {
	case a < q.floor:
		c.wait = -1
	case zero:
		c.zero, c.wait = true, int32(a)
		if a >= q.frontier {
			q.zeroTop = p.later(q.zeroTop, idx)
		} else {
			q.zeroWait[a] = p.later(q.zeroWait[a], idx)
		}
	case a >= q.frontier:
		c.wait = -1
		p.push(idx)
	case c.wait != int32(a):
		c.wait = int32(a)
		q.waiting[a] = append(q.waiting[a], idx)
	}
}

// unfile takes candidate idx out of the heap or the count-0 candidates. A
// candidate waiting in the lists keeps its entry and its level, which file
// reuses when it files it at the same level again.
func (p *Policy) unfile(idx int32) {
	q := &p.q
	c := &p.arena[idx]
	switch {
	case c.at >= 0:
		p.remove(int(c.at))
	case c.zero:
		c.zero = false
		if idx == q.zeroTop || int(c.wait) < q.frontier && q.zeroWait[c.wait] == idx {
			p.rescanZero()
		}
		c.wait = -1
	}
}

// rescanZero rebuilds the count-0 candidates' latest-per-level and latest
// eligible from the arena.
func (p *Policy) rescanZero() {
	q := &p.q
	q.zeroTop = -1
	for i := range q.zeroWait {
		q.zeroWait[i] = -1
	}
	for i := range p.arena {
		c := &p.arena[i]
		switch {
		case !c.zero:
		case int(c.wait) >= q.frontier:
			q.zeroTop = p.later(q.zeroTop, int32(i))
		default:
			q.zeroWait[c.wait] = p.later(q.zeroWait[c.wait], int32(i))
		}
	}
}

// later returns whichever of candidates a and b (-1 for none) was evicted
// later, the higher-priority of two count-0 candidates.
func (p *Policy) later(a, b int32) int32 {
	if a < 0 || b >= 0 && p.arena[b].seq > p.arena[a].seq {
		return b
	}
	return a
}

// reach makes every candidate waiting for a level down to level eligible.
// Level must not exceed the previous call's in the same write.
func (p *Policy) reach(level int) {
	q := &p.q
	for q.frontier > level {
		q.frontier--
		lv := int32(q.frontier)
		for _, idx := range q.waiting[lv] {
			if c := &p.arena[idx]; c.wait == lv && c.at < 0 && !c.zero {
				c.wait = -1
				p.push(idx)
			}
		}
		q.waiting[lv] = q.waiting[lv][:0]
		if z := q.zeroWait[lv]; z >= 0 {
			q.zeroTop = p.later(q.zeroTop, z)
			q.zeroWait[lv] = -1
		}
	}
}

// push adds candidate idx to the heap.
func (p *Policy) push(idx int32) {
	q := &p.q
	q.heap = append(q.heap, heapNode{prio: q.prio(&p.arena[idx]), cand: idx})
	p.up(len(q.heap) - 1)
}

// remove deletes heap slot i, backfilling it with the last node.
func (p *Policy) remove(i int) {
	h := p.q.heap
	p.arena[h[i].cand].at = -1
	last := len(h) - 1
	p.q.heap = h[:last]
	if i != last {
		h[i] = h[last]
		p.fix(i)
	}
}

// fix restores the heap order around slot i after its priority changed.
func (p *Policy) fix(i int) {
	if !p.up(i) {
		p.down(i)
	}
}

// place puts node n in heap slot i and records the slot in its candidate.
func (p *Policy) place(i int, n heapNode) {
	p.q.heap[i] = n
	p.arena[n.cand].at = int32(i)
}

// up sifts slot i toward the root and reports whether it moved.
func (p *Policy) up(i int) bool {
	h := p.q.heap
	n := h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].prio >= n.prio {
			break
		}
		p.place(i, h[parent])
		i = parent
	}
	p.place(i, n)
	return i != start
}

// down sifts slot i toward the leaves.
func (p *Policy) down(i int) {
	h := p.q.heap
	n := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].prio > h[c].prio {
			c++
		}
		if h[c].prio <= n.prio {
			break
		}
		p.place(i, h[c])
		i = c
	}
	p.place(i, n)
}

// rdPrio orders by effective level (deepest first), breaking ties by
// eviction order — the block loaded/evicted later wins, matching the
// paper's Fig. 4 footnote about intra-bucket order. Priorities of distinct
// candidates never collide: the sequence number is unique per candidate
// within a path write.
func rdPrio(c *candidate) int64 { return int64(c.effLevel)<<32 | int64(c.seq) }

// hdPrio orders by Hot Address Cache count, same tie-break.
func hdPrio(c *candidate) int64 { return int64(c.count)<<20 | int64(c.seq) }
