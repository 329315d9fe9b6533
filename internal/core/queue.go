package core

// The RD-queue and HD-queue (§V-B) are priority queues over duplication
// candidates, and the only selection a path write needs is "remove the
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
// the rest of the write, until its bounds change.
//
// Each queue therefore files its candidates by activation level. When a
// selection reaches a new level, that level's waiting list joins the active
// list, and the selection scans only the active list — every node of which
// passes — for the maximum priority. Priorities of distinct candidates
// never tie (the sequence number is unique per candidate), so the pick is
// exactly the one a scan of every queued candidate would make. NoteEvict
// re-files a candidate whose bounds or priority change; an RD pick, which
// lowers the candidate's effective level, sends it back to waiting. Slots
// near the leaves, where few candidates are eligible, thus scan few nodes.
//
// Lists are unordered slices: a push is an append, a removal moves the last
// node into the hole, and every candidate records where its node sits in
// each queue, so re-filing goes straight to it. Nodes refer to candidates
// by index into the policy's per-write arena rather than by pointer, and
// the lists keep their capacity across writes, so a path write allocates
// nothing once the policy is warm.

type queueKind uint8

const (
	byLevel queueKind = iota // RD-queue: deepest effective level first
	byCount                  // HD-queue: highest access count first
)

type queueNode struct {
	prio int64
	cand int32 // index into the policy's candidate arena
}

// queuePos locates a candidate's node in one queue: lists[list][idx], with
// list -1 when the candidate is not queued there.
type queuePos struct{ list, idx int32 }

var unqueued = queuePos{-1, -1}

// activeList holds the candidates eligible at every level from the queue's
// frontier down; list 1+a holds those waiting for level a.
const activeList = 0

// candQueue is one queue's lists for the current path write.
type candQueue struct {
	kind  queueKind
	lists [][]queueNode // L+2 lists: active, then one per activation level
	// frontier is the lowest level this write has selected at (L+1 before
	// the first selection): every waiting list at or above it has joined
	// the active list.
	frontier int
}

// reset empties the queue for a write over a tree with the given number
// of levels.
func (q *candQueue) reset(levels int) {
	for i := range q.lists {
		q.lists[i] = q.lists[i][:0]
	}
	q.frontier = levels
}

// posOf returns the candidate's position slot for this queue.
func (q *candQueue) posOf(c *candidate) *queuePos {
	if q.kind == byLevel {
		return &c.rdPos
	}
	return &c.hdPos
}

func (q *candQueue) prio(c *candidate) int64 {
	if q.kind == byLevel {
		return rdPrio(c)
	}
	return hdPrio(c)
}

// activation returns the highest level at which c passes this queue's
// rules; negative when it passes at none.
func (q *candQueue) activation(c *candidate) int {
	a := min(c.srcLevel-1, c.isect)
	if q.kind == byLevel {
		a = min(a, c.effLevel-1)
	}
	return a
}

// put files candidate idx in q under its current bounds and priority: in
// the active list when the write has already reached its activation level,
// otherwise in that level's waiting list, and nowhere when no level can
// take it. A queued candidate is moved, or re-prioritised in place.
func (p *Policy) put(q *candQueue, idx int32) {
	c := &p.arena[idx]
	list := int32(-1)
	if a := q.activation(c); a >= q.frontier {
		list = activeList
	} else if a >= 0 {
		list = int32(a) + 1
	}
	pos := q.posOf(c)
	if list >= 0 && pos.list == list {
		q.lists[list][pos.idx].prio = q.prio(c)
		return
	}
	if pos.list >= 0 {
		p.unlink(q, *pos)
	}
	*pos = unqueued
	if list >= 0 {
		*pos = queuePos{list, int32(len(q.lists[list]))}
		q.lists[list] = append(q.lists[list], queueNode{prio: q.prio(c), cand: idx})
	}
}

// unlink removes the node at at, backfilling the hole with the list's last
// node; the caller resets the removed candidate's own position.
func (p *Policy) unlink(q *candQueue, at queuePos) {
	nodes := q.lists[at.list]
	last := int32(len(nodes) - 1)
	if at.idx != last {
		nodes[at.idx] = nodes[last]
		q.posOf(&p.arena[nodes[at.idx].cand]).idx = at.idx
	}
	q.lists[at.list] = nodes[:last]
}

// popValid removes and returns the highest-priority candidate of q that
// passes the rules at level, after moving every waiting list down to level
// into the active list. Level must not exceed the previous call's in the
// same write.
func (p *Policy) popValid(q *candQueue, level int) *candidate {
	for q.frontier > level {
		q.frontier--
		waiting := q.lists[q.frontier+1]
		for _, n := range waiting {
			*q.posOf(&p.arena[n.cand]) = queuePos{activeList, int32(len(q.lists[activeList]))}
			q.lists[activeList] = append(q.lists[activeList], n)
		}
		q.lists[q.frontier+1] = waiting[:0]
	}
	nodes := q.lists[activeList]
	if len(nodes) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].prio > nodes[best].prio {
			best = i
		}
	}
	c := &p.arena[nodes[best].cand]
	p.unlink(q, queuePos{activeList, int32(best)})
	*q.posOf(c) = unqueued
	return c
}

// rdPrio orders by effective level (deepest first), breaking ties by
// eviction order — the block loaded/evicted later wins, matching the
// paper's Fig. 4 footnote about intra-bucket order. Priorities of distinct
// candidates never collide: the sequence number is unique per candidate
// within a path write.
func rdPrio(c *candidate) int64 { return int64(c.effLevel)<<32 | int64(c.seq) }

// hdPrio orders by Hot Address Cache count, same tie-break.
func hdPrio(c *candidate) int64 { return int64(c.count)<<20 | int64(c.seq) }
