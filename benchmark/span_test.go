package main

import (
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "root", Start: 0, End: 100},
		// Two children that overlap on [30,40): covered once, 10..60 = 50.
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "b", Start: 30, End: 60},
		// A grandchild takes its time out of its parent only.
		{ID: 3, Parent: 1, Layer: "c", Start: 15, End: 25},
		// A child that sticks out of its parent is clipped to it.
		{ID: 4, Parent: 0, Layer: "b", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 10, "b": 30 + 30, "c": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

// The tracer's running aggregate and the span-file computation are the same
// quantity when every request is sampled and spans nest.
func TestTracerAggregateEqualsSpanSelfTimes(t *testing.T) {
	tr := newTracer(1, 1000)
	tr.clock = 0
	for i := 0; i < 20; i++ {
		tr.nextRequest()
		tr.begin(layHarness, false)
		tr.begin(layORAMFunc, false)
		tr.begin(layStoreRead, false)
		time.Sleep(50 * time.Microsecond)
		tr.end()
		tr.begin(layStoreWrite, false)
		tr.end()
		tr.end()
		tr.begin(layKVFrame, false)
		tr.end()
		tr.end()
	}
	if len(tr.stack) != 0 {
		t.Fatalf("%d spans left open", len(tr.stack))
	}
	fromSpans := selfTimes(tr.spans)
	var total, roots int64
	for l := layer(0); l < numLayers; l++ {
		if got, want := fromSpans[l.String()], tr.self[l]; got != want {
			t.Errorf("%s: %d from spans, %d aggregated", l, got, want)
		}
		total += tr.self[l]
	}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			roots += s.End - s.Start
		}
		if s.Req == 0 {
			t.Errorf("span %d carries no request id", s.ID)
		}
	}
	if total != roots {
		t.Errorf("self times sum to %d, root spans to %d: they must telescope", total, roots)
	}
	if tr.calls[layStoreRead] != 20 || tr.calls[layHarness] != 20 {
		t.Errorf("calls = %v", tr.calls)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.nextRequest()
	tr.begin(layCPU, true)
	if tr.beginHot(layCore) {
		t.Error("nil tracer timed a hot span")
	}
	if d := tr.end(); d != 0 {
		t.Errorf("nil tracer measured %d", d)
	}
}

// Hot spans are timed one in hotStride and scaled up; the estimate moves
// out of the parent layer, so the two still add up to what was measured.
func TestHotSpansExtrapolate(t *testing.T) {
	tr := newTracer(0, 0)
	tr.clock = 0
	const calls = 1600
	tr.begin(layORAM, false)
	timed := 0
	for i := 0; i < calls; i++ {
		if tr.beginHot(layCore) {
			timed++
			time.Sleep(20 * time.Microsecond)
			tr.end()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	total := tr.end()
	if timed < calls/hotStride/2 || timed > calls/hotStride*2 {
		t.Fatalf("%d of %d calls timed, want about one in %d", timed, calls, hotStride)
	}
	tr.extrapolate(layCore, layORAM)
	if tr.calls[layCore] != calls {
		t.Errorf("calls = %d, want %d", tr.calls[layCore], calls)
	}
	if sum := tr.self[layCore] + tr.self[layORAM]; sum != total {
		t.Errorf("core %d + oram %d = %d, want the measured %d", tr.self[layCore], tr.self[layORAM], sum, total)
	}
	// Every call slept about the same, so nearly all the time is the hot
	// layer's; sleeps are uneven, hence the slack.
	if share := float64(tr.self[layCore]) / float64(total); share < 0.6 || share > 1.4 {
		t.Errorf("hot layer's share = %.2f, want ~1", share)
	}
}

func TestClockCostIsPlausible(t *testing.T) {
	if c := clockCost(); c <= 0 || c > 5000 {
		t.Errorf("clock read measured at %d ns", c)
	}
}
