package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schema identifies the metrics JSON layout. Bump on incompatible change.
//
// v3 reports carry the cycle-attribution ledger: the per-stage
// attribution table, the shared-resource table, and the per-channel /
// per-bank DRAM breakdown, all under the top-level "ledger" key (absent
// when the run disabled the ledger).
const Schema = "shadowblock-metrics/v3"

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
	// ...). Empty in reports from older binaries and engine-less runs (the
	// insecure baseline) — a schema-compatible addition, so v3 stands.
	Engine   string                   `json:"engine,omitempty"`
	Labels   map[string]string        `json:"labels,omitempty"`
	Cycles   int64                    `json:"cycles"`
	Latency  map[string]LatencyReport `json:"latency"`
	Series   []SeriesReport           `json:"series"`
	Counters map[string]uint64        `json:"counters,omitempty"`
	// Ledger is the cycle-attribution table (new in v3); nil when the
	// ledger was disabled for the run.
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
			WindowCycles: c.TS.Window,
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

// DecodeReport reads a metrics JSON report in the current schema. Any
// other schema is an error — better than silently misreading a layout
// this code does not know.
func DecodeReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("metrics: decode report: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("metrics: unknown report schema %q (want %q)", rep.Schema, Schema)
	}
	return &rep, nil
}

// WriteJSON writes the report, indented for humans, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to a file.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTraceFile writes the recorder's Chrome trace to a file. A collector
// without tracing (or a nil collector) writes a valid empty trace.
func (c *Collector) WriteTraceFile(path string, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var rec *Recorder
	if c != nil {
		rec = c.Trace
	}
	if err := rec.WriteTrace(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
