package metrics

import (
	"encoding/json"
	"io"
	"sort"
)

// TraceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// Perfetto and chrome://tracing load the exported JSON directly. Simulated
// cycles are written as the microsecond timestamps the format expects, so
// one trace "µs" is one CPU cycle.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"` // "X" span, "i" instant, "C" counter
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// Recorder collects request-lifecycle events into a fixed-capacity ring
// buffer: memory stays O(capacity) no matter how long the run, with the
// newest events surviving. A nil Recorder drops everything at the cost of
// one branch, so tracing is free when disabled.
type Recorder struct {
	cap     int
	buf     []TraceEvent
	next    int // ring cursor once len(buf) == cap
	dropped uint64
}

// DefaultTraceCapacity bounds the ring at ~64k events (a few MB), roughly
// the last ten thousand fully-traced requests of a run.
const DefaultTraceCapacity = 1 << 16

// NewRecorder builds a recorder holding at most capacity events (<= 0
// selects DefaultTraceCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Recorder{cap: capacity, buf: make([]TraceEvent, 0, capacity)}
}

func (r *Recorder) add(e TraceEvent) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
}

// Span records a complete ("X") event covering [start, end).
func (r *Recorder) Span(name, cat string, tid int, start, end int64, args map[string]any) {
	if r == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.add(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: start, Dur: dur, TID: tid, Args: args})
}

// Instant records a thread-scoped instant ("i") event at ts.
func (r *Recorder) Instant(name, cat string, tid int, ts int64, args map[string]any) {
	if r == nil {
		return
	}
	r.add(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: ts, TID: tid, S: "t", Args: args})
}

// Counter records a counter ("C") event: Perfetto renders each args key as
// one stacked track value.
func (r *Recorder) Counter(name string, tid int, ts int64, values map[string]any) {
	if r == nil {
		return
	}
	r.add(TraceEvent{Name: name, Ph: "C", TS: ts, TID: tid, Args: values})
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the buffered events sorted by timestamp (the ring stores
// them rotated). The slice is freshly allocated.
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	out := make([]TraceEvent, len(r.buf))
	copy(out, r.buf)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// chromeTrace is the JSON object format of the trace-event spec.
type chromeTrace struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteTrace writes the buffered events as Chrome trace-event JSON. An
// empty (or nil) recorder still writes a valid, loadable trace.
func (r *Recorder) WriteTrace(w io.Writer, meta map[string]string) error {
	events := r.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns", OtherData: meta})
}
