package metrics

import "sync/atomic"

// Options configures a Collector.
type Options struct {
	// WindowCycles is the time-series epoch width (<= 0 selects
	// DefaultWindowCycles).
	WindowCycles int64
	// Tracing enables the request-lifecycle event recorder.
	Tracing bool
	// TraceCapacity bounds the trace ring buffer (<= 0 selects
	// DefaultTraceCapacity). Ignored unless Tracing.
	TraceCapacity int
	// Ledger enables the cycle-attribution ledger (per-stage and
	// per-resource cycle accounting with the conservation invariant).
	Ledger bool
}

// Collector gathers one run's observability data. It is wired through the
// stack by sim.Run; each simulation layer probes it directly. A nil
// *Collector is the disabled state: every method no-ops, so instrumented
// code needs no configuration flag of its own.
//
// A Collector is not safe for concurrent use — each simulated system is
// single-threaded by design, and parallel sweeps use one collector per run.
// The one exception is Live, the latest report Publish installed.
type Collector struct {
	// ReqForward is the intended-data return latency of each ORAM request
	// (issue to forward), the distribution behind the paper's Figs. 6–12.
	ReqForward *Histogram
	// ReqComplete is issue-to-completion latency (forward plus the
	// eviction work the request triggered).
	ReqComplete *Histogram
	// MissLatency is the CPU-side LLC miss latency, merged across cores.
	MissLatency *Histogram

	// TS holds the epoch-bucketed time-series (shadow-hit rate, stash
	// occupancy, partition boundary, DRAM backlog, ...).
	TS *TimeSeries

	// Trace is the request-lifecycle event recorder; nil unless tracing
	// was requested.
	Trace *Recorder

	// Ledger is the cycle-attribution ledger; nil unless requested. A
	// nil ledger no-ops, so probe sites need no flag of their own.
	Ledger *Ledger

	counters map[string]uint64

	// live is the latest published report (Publish), the one other
	// goroutines may read; served is set once a DebugServer serves it.
	live   atomic.Pointer[Report]
	served atomic.Bool
}

// New builds an enabled collector.
func New(o Options) *Collector {
	c := &Collector{
		ReqForward:  NewHistogram(),
		ReqComplete: NewHistogram(),
		MissLatency: NewHistogram(),
		TS:          NewTimeSeries(o.WindowCycles),
		counters:    make(map[string]uint64),
	}
	if o.Tracing {
		c.Trace = NewRecorder(o.TraceCapacity)
	}
	if o.Ledger {
		c.Ledger = &Ledger{}
	}
	return c
}

// Count adds delta to a named counter.
func (c *Collector) Count(name string, delta uint64) {
	if c == nil {
		return
	}
	c.counters[name] += delta
}

// Counter returns the current value of a named counter.
func (c *Collector) Counter(name string) uint64 {
	if c == nil {
		return 0
	}
	return c.counters[name]
}

// Observe records value v at cycle now into the named time-series.
func (c *Collector) Observe(name string, now int64, v float64) {
	if c == nil {
		return
	}
	c.TS.Series(name).Observe(now, v)
}
