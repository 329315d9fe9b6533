package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 10; i++ {
		r.Instant("e", "c", 0, i, nil)
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len/dropped = %d/%d", r.Len(), r.Dropped())
	}
	ev := r.Events()
	// The newest four events survive, in timestamp order.
	for i, e := range ev {
		if e.TS != int64(6+i) {
			t.Fatalf("event %d has ts %d, want %d", i, e.TS, 6+i)
		}
	}
}

func TestRecorderEventKinds(t *testing.T) {
	r := NewRecorder(0)
	r.Span("s", "cat", 1, 10, 25, map[string]any{"k": 1})
	r.Span("backwards", "cat", 1, 30, 20, nil) // negative duration clamps
	r.Instant("i", "cat", 2, 5, nil)
	r.Counter("c", 0, 7, map[string]any{"v": 3})
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d", len(ev))
	}
	// Sorted by ts: instant(5), counter(7), span(10), backwards(30).
	if ev[0].Ph != "i" || ev[0].S != "t" {
		t.Fatalf("instant wrong: %+v", ev[0])
	}
	if ev[1].Ph != "C" {
		t.Fatalf("counter wrong: %+v", ev[1])
	}
	if ev[2].Ph != "X" || ev[2].Dur != 15 {
		t.Fatalf("span wrong: %+v", ev[2])
	}
	if ev[3].Dur != 0 {
		t.Fatalf("negative duration not clamped: %+v", ev[3])
	}
}

// chromeFile mirrors the trace-event JSON object form for decoding.
type chromeFile struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func TestWriteTraceValidJSON(t *testing.T) {
	r := NewRecorder(8)
	r.Span("request", "oram", 0, 0, 100, map[string]any{"req": 1})
	r.Instant("forward", "oram", 0, 60, nil)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf, map[string]string{"bench": "x"}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d", len(f.TraceEvents))
	}
	for _, e := range f.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event missing %q: %v", key, e)
			}
		}
	}
}

func TestWriteTraceEmptyAndNil(t *testing.T) {
	// An empty recorder — and even a nil one — must still emit a valid,
	// loadable trace with an empty (not null) traceEvents array.
	for _, r := range []*Recorder{nil, NewRecorder(4)} {
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf, nil); err != nil {
			t.Fatal(err)
		}
		var f struct {
			TraceEvents []any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatalf("empty trace invalid: %v", err)
		}
		if f.TraceEvents == nil {
			t.Fatalf("traceEvents is null in %s", buf.String())
		}
		if len(f.TraceEvents) != 0 {
			t.Fatalf("empty recorder emitted events: %s", buf.String())
		}
	}
	var nilR *Recorder
	nilR.Span("x", "", 0, 0, 1, nil) // must not panic
	nilR.Instant("x", "", 0, 0, nil)
	nilR.Counter("x", 0, 0, nil)
	if nilR.Len() != 0 || nilR.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderWrapMultipleLaps(t *testing.T) {
	// Several full laps around the ring: the dropped count must stay exact
	// and the survivors must be exactly the newest cap events.
	const ringCap = 8
	r := NewRecorder(ringCap)
	const n = 5*ringCap + 3
	for i := int64(0); i < n; i++ {
		r.Counter("depth", 0, i, map[string]any{"v": i})
	}
	if r.Len() != ringCap || r.Dropped() != n-ringCap {
		t.Fatalf("len/dropped = %d/%d, want %d/%d", r.Len(), r.Dropped(), ringCap, n-ringCap)
	}
	for i, e := range r.Events() {
		if want := int64(n - ringCap + i); e.TS != want {
			t.Fatalf("survivor %d has ts %d, want %d", i, e.TS, want)
		}
	}
}

func TestRecorderEventsSortedAcrossWrapSeam(t *testing.T) {
	// Span starts are not monotone in record order (a request span is
	// emitted at completion with its issue-time timestamp), so after a
	// wrap the raw ring is doubly out of order: rotated AND locally
	// unsorted. Events must still come back globally sorted by timestamp.
	r := NewRecorder(4)
	for _, ts := range []int64{100, 90, 300, 250, 500, 410} {
		r.Span("request", "oram", 0, ts, ts+50, nil)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("events out of order after wrap: %d before %d", ev[i-1].TS, ev[i].TS)
		}
	}
	if ev[0].TS != 250 || ev[3].TS != 500 {
		t.Fatalf("wrong survivors: first %d last %d", ev[0].TS, ev[3].TS)
	}
}

func TestWriteTraceAfterWrapStillValidJSON(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 20; i++ {
		r.Span("request", "oram", 0, i*10, i*10+5, map[string]any{"req": i})
	}
	if r.Dropped() == 0 {
		t.Fatal("test premise broken: nothing dropped")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf, map[string]string{"bench": "wrap"}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("post-wrap trace invalid JSON: %v", err)
	}
	// Only the ring's survivors are written, in timestamp order.
	if len(f.TraceEvents) != 4 {
		t.Fatalf("traceEvents = %d, want 4", len(f.TraceEvents))
	}
	last := -1.0
	for _, e := range f.TraceEvents {
		ts := e["ts"].(float64)
		if ts < last {
			t.Fatalf("exported events out of order: %v after %v", ts, last)
		}
		last = ts
	}
}
