package main

import (
	"sort"
	"time"
)

// layer names the module a span's time is charged to. The benchmark only
// sees public seams, so a layer is "everything between this seam and the
// next decorated one below it".
type layer uint8

const (
	layHarness    layer = iota // the benchmark's own loop around the calls
	laySetup                   // engine construction inside a traced sim repetition
	layTrace                   // trace.Source.Next
	layCPU                     // cpu.RunSources minus its Next and Issue children
	layORAM                    // oram.Queue.Issue / Engine.Drain minus policy children
	layCore                    // oram.DupPolicy calls into core.Policy
	layKVDir                   // kv.Directory
	layKVFrame                 // kv.EncodeValue / DecodeValue
	layORAMFunc                // oram.Queue.Read/Write minus backend children (engine + crypt)
	layStoreRead               // store.Backend.ReadBucket
	layStoreWrite              // store.Backend.WriteBucket
	layHTTP                    // one HTTP round trip seen by the client
	numLayers
)

var layerNames = [numLayers]string{
	"harness", "setup", "trace", "cpu", "oram", "core",
	"kv.dir", "kv.frame", "oram.functional", "store.read", "store.write", "http",
}

func (l layer) String() string { return layerNames[l] }

// span is one recorded interval: which layer, when, caused by which span,
// on behalf of which request. Times are nanoseconds since the tracer's base.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    uint64 `json:"req"`
	Layer  string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	lay   layer
	start int64
	child int64 // time covered by already-closed child spans
	id    int32 // index in tracer.spans, -1 when the request is not sampled
}

// tracer keeps every layer's aggregate self time and call count, and the
// full span tree of one request in every sampleEvery. It is single-threaded
// (one per goroutine that issues requests) and a nil tracer records nothing,
// so the timed repetitions run the same code with tracing off.
type tracer struct {
	base        time.Time
	stack       []frame
	self        [numLayers]int64
	calls       [numLayers]uint64
	req         uint64
	sampleEvery uint64
	sampled     bool
	spans       []span
	maxSpans    int
	clock       int64 // measured cost of one clock read, ns

	// Hot spans: timed one call in hotStride, counted always.
	skipped [numLayers]uint64
	rnd     uint64
}

// hotStride is how many calls of a hot span share one timed call. A policy
// or backend call takes about as long as the two clock reads around it, and
// a request makes sixty of them; timing each one cost a third of the run.
const hotStride = 8

func newTracer(sampleEvery uint64, maxSpans int) *tracer {
	return &tracer{base: time.Now(), sampleEvery: sampleEvery, maxSpans: maxSpans, stack: make([]frame, 0, 8),
		rnd: 0x9e3779b97f4a7c15, clock: clockCost()}
}

// clockCost measures what one clock read costs here (about 45 ns on the box
// the benchmark was defined on). Every span's duration contains one, which
// for a 100 ns policy call is a third of what was measured; end takes it
// out of the span's self time, so it is charged to no layer.
func clockCost() int64 {
	base := time.Now()
	best := int64(1 << 62)
	for i := 0; i < 64; i++ {
		const reads = 16
		t0 := time.Since(base)
		for j := 0; j < reads-1; j++ {
			time.Since(base)
		}
		best = min(best, int64(time.Since(base)-t0)/reads)
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// nextRequest starts a new request id; spans opened until the next call
// carry it.
func (t *tracer) nextRequest() {
	if t == nil {
		return
	}
	t.req++
	t.sampled = t.sampleEvery > 0 && t.req%t.sampleEvery == 0
}

// begin opens a span of lay under the innermost open span. keep forces the
// span into the sample (used for the few long-lived roots).
func (t *tracer) begin(lay layer, keep bool) {
	if t == nil {
		return
	}
	id := int32(-1)
	if (keep || t.sampled) && len(t.spans) < t.maxSpans {
		parent := int32(-1)
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].id >= 0 {
				parent = t.stack[i].id
				break
			}
		}
		id = int32(len(t.spans))
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Layer: lay.String()})
	}
	now := t.now()
	if id >= 0 {
		t.spans[id].Start = now
	}
	t.stack = append(t.stack, frame{lay: lay, start: now, id: id})
}

// end closes the innermost span and returns its duration. Its self time —
// the duration minus what its children covered, minus the clock read inside
// it — goes to its layer.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.self[f.lay] += max(d-f.child-t.clock, 0)
	t.calls[f.lay]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.id >= 0 {
		t.spans[f.id].End = now
	}
	return d
}

// beginHot is begin for spans too frequent to time each one: it times a
// pseudo-random one call in hotStride (so it cannot fall into step with the
// engine's per-slot call pattern), and every call of a sampled request, and
// only counts the rest. The caller calls end only when it returns true.
func (t *tracer) beginHot(lay layer) bool {
	if t == nil {
		return false
	}
	if !t.sampled {
		t.rnd ^= t.rnd << 13
		t.rnd ^= t.rnd >> 7
		t.rnd ^= t.rnd << 17
		if t.rnd%hotStride != 0 {
			t.skipped[lay]++
			return false
		}
	}
	t.begin(lay, false)
	return true
}

// extrapolate scales a hot layer's timed calls up to all its calls, and
// takes the estimated time of the untimed ones out of parent, the layer
// they ran under and whose spans therefore still contain them.
func (t *tracer) extrapolate(lay, parent layer) {
	if t.calls[lay] == 0 {
		return
	}
	extra := int64(float64(t.self[lay]) * float64(t.skipped[lay]) / float64(t.calls[lay]))
	t.self[lay] += extra
	t.self[parent] -= extra
	t.calls[lay] += t.skipped[lay]
	t.skipped[lay] = 0
}

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
	}
	off := int32(len(t.spans))
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes computes each layer's self time from recorded spans alone: a
// span's duration minus the part of it its direct children cover, with
// overlapping children counted once. The tracer's running aggregate is the
// same quantity for strictly nested spans; this form also handles children
// that overlap (concurrent callers), and is what a reader of the span file
// would compute.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start,end) the given spans cover.
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
