package metrics

import (
	"encoding/json"
	"io"
	"os"
)

// Schema identifies the metrics JSON layout. Bump on incompatible change.
//
// v4 reports carry the cycle-attribution ledger: the per-stage
// attribution table, keyed by the same stage names on every engine, and
// the per-channel / per-bank DRAM breakdown, all under the top-level
// "ledger" key (absent when the run disabled the ledger).
const Schema = "shadowblock-metrics/v4"

// LatencyReport is one histogram in the JSON export: the digest plus the
// non-empty buckets (le = inclusive upper bound of each bucket).
type LatencyReport struct {
	LatencySummary
	Buckets []Bucket `json:"buckets,omitempty"`
}

// SeriesReport is one time-series in the JSON export.
type SeriesReport struct {
	Name         string        `json:"name"`
	WindowCycles int64         `json:"window_cycles"`
	Summary      SeriesSummary `json:"summary"`
	Points       []Point       `json:"points"`
}

// Report is the machine-readable outcome of one instrumented run. See the
// README's "Observability" section for the field-by-field schema.
type Report struct {
	Schema string `json:"schema"`
	// Engine names the ORAM engine that produced the run ("path", "ring",
	// ...). Empty for engine-less runs (the insecure baseline).
	Engine   string                   `json:"engine,omitempty"`
	Labels   map[string]string        `json:"labels,omitempty"`
	Cycles   int64                    `json:"cycles"`
	Latency  map[string]LatencyReport `json:"latency"`
	Series   []SeriesReport           `json:"series"`
	Counters map[string]uint64        `json:"counters,omitempty"`
	// Ledger is the cycle-attribution table; nil when the ledger was
	// disabled for the run.
	Ledger *LedgerReport `json:"ledger,omitempty"`
}

// Report digests the collector into its exportable form. labels annotate
// the run (bench, scheme, seed, ...).
func (c *Collector) Report(cycles int64, labels map[string]string) *Report {
	if c == nil {
		return nil
	}
	r := &Report{
		Schema:  Schema,
		Labels:  labels,
		Cycles:  cycles,
		Latency: make(map[string]LatencyReport),
	}
	for name, h := range map[string]*Histogram{
		"request_forward":  c.ReqForward,
		"request_complete": c.ReqComplete,
		"llc_miss":         c.MissLatency,
	} {
		if h.Count() == 0 {
			continue
		}
		r.Latency[name] = LatencyReport{LatencySummary: h.Summary(), Buckets: h.Buckets()}
	}
	for _, s := range c.TS.All() {
		pts := s.Points()
		if len(pts) == 0 {
			continue
		}
		r.Series = append(r.Series, SeriesReport{
			Name:         s.Name,
			WindowCycles: s.Window(),
			Summary:      s.Summary(),
			Points:       pts,
		})
	}
	if len(c.counters) > 0 {
		r.Counters = make(map[string]uint64, len(c.counters))
		for k, v := range c.counters {
			r.Counters[k] = v
		}
	}
	r.Ledger = c.Ledger.Report()
	return r
}

// WriteJSON writes the report, indented for humans, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to a file.
func (r *Report) WriteFile(path string) error { return writeFile(path, r.WriteJSON) }

// WriteTraceFile writes the recorder's Chrome trace to a file. A collector
// without tracing (or a nil collector) writes a valid empty trace.
func (c *Collector) WriteTraceFile(path string, meta map[string]string) error {
	var rec *Recorder
	if c != nil {
		rec = c.Trace
	}
	return writeFile(path, func(w io.Writer) error { return rec.WriteTrace(w, meta) })
}

// writeFile creates path and fills it with write, closing it on every path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
