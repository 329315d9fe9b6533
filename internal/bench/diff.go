package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"shadowblock/internal/metrics"
)

// Cell comparison statuses. A deterministic simulator makes "unchanged"
// the expected steady state; anything else either explains itself (the
// stage deltas say where the cycles moved) or fails the gate.
const (
	StatusUnchanged = "unchanged"
	StatusImproved  = "improved"
	StatusRegressed = "regressed"
	StatusAdded     = "added"   // cell only in the new bundle
	StatusRemoved   = "removed" // cell only in the baseline
)

// StageDelta is one attribution row's movement between two reports.
type StageDelta struct {
	Stage string `json:"stage"`
	Old   int64  `json:"old"`
	New   int64  `json:"new"`
	Delta int64  `json:"delta"`
}

// CellDelta compares one named cell across two bundles.
type CellDelta struct {
	Name   string `json:"name"`
	Status string `json:"status"`

	OldCycles int64   `json:"old_cycles"`
	NewCycles int64   `json:"new_cycles"`
	DeltaPct  float64 `json:"delta_pct"`

	// Forward-latency percentiles (the intended-data return latency).
	OldP50 int64 `json:"old_p50"`
	NewP50 int64 `json:"new_p50"`
	OldP99 int64 `json:"old_p99"`
	NewP99 int64 `json:"new_p99"`

	// Stages lists the attribution rows that moved (ledger-carrying
	// reports only): where the regression or improvement went.
	Stages []StageDelta `json:"stages,omitempty"`
}

// Diff is the outcome of comparing two bundles under a tolerance.
type Diff struct {
	TolerancePct float64     `json:"tolerance_pct"`
	Cells        []CellDelta `json:"cells"`
}

// Compare diffs cur against base cell-by-cell. tolPct is the total-cycle
// movement (in percent) a cell may show and still count as unchanged; the
// simulator is deterministic, so 0 is a sound default.
func Compare(base, cur *Bundle, tolPct float64) *Diff {
	d := &Diff{TolerancePct: tolPct}
	seen := make(map[string]bool)
	for _, name := range base.Names() {
		seen[name] = true
		old := base.Cells[name]
		neu, ok := cur.Cells[name]
		if !ok {
			d.Cells = append(d.Cells, CellDelta{Name: name, Status: StatusRemoved, OldCycles: old.Cycles})
			continue
		}
		d.Cells = append(d.Cells, compareCell(name, old, neu, tolPct))
	}
	for _, name := range cur.Names() {
		if !seen[name] {
			d.Cells = append(d.Cells, CellDelta{Name: name, Status: StatusAdded, NewCycles: cur.Cells[name].Cycles})
		}
	}
	return d
}

func compareCell(name string, old, neu *metrics.Report, tolPct float64) CellDelta {
	c := CellDelta{Name: name, OldCycles: old.Cycles, NewCycles: neu.Cycles}
	if old.Cycles > 0 {
		c.DeltaPct = 100 * float64(neu.Cycles-old.Cycles) / float64(old.Cycles)
	}
	c.OldP50, c.OldP99 = forwardPercentiles(old)
	c.NewP50, c.NewP99 = forwardPercentiles(neu)
	switch {
	case c.DeltaPct > tolPct:
		c.Status = StatusRegressed
	case c.DeltaPct < -tolPct:
		c.Status = StatusImproved
	default:
		c.Status = StatusUnchanged
	}
	// Attribution movement: where did the cycles go? Only meaningful when
	// both reports carry a ledger; -no-ledger cells diff on totals alone.
	if old.Ledger != nil && neu.Ledger != nil {
		for _, s := range neu.Ledger.Stages {
			o := old.Ledger.Stage(s.Stage)
			if s.Cycles != o.Cycles {
				c.Stages = append(c.Stages, StageDelta{
					Stage: s.Stage, Old: o.Cycles, New: s.Cycles, Delta: s.Cycles - o.Cycles,
				})
			}
		}
	}
	return c
}

func forwardPercentiles(r *metrics.Report) (p50, p99 int64) {
	if lat, ok := r.Latency["request_forward"]; ok {
		return lat.P50, lat.P99
	}
	return 0, 0
}

// Regressed reports whether the diff should fail a regression gate: any
// cell regressed beyond tolerance, or a baseline cell vanished from the
// new bundle (a removed cell silently stops being tested — that must fail
// loudly, not pass). A cell present only in the new bundle does NOT trip
// the gate: it has no baseline to regress against, and failing on it
// would make every PR that introduces a cell red before the refreshed
// baseline can land. Added cells still show up through Changed, which is
// the refresh-the-baseline signal.
func (d *Diff) Regressed() bool {
	for _, c := range d.Cells {
		switch c.Status {
		case StatusRegressed, StatusRemoved:
			return true
		}
	}
	return false
}

// Removed lists the baseline cells missing from the new bundle — the
// gate-failure case callers should name loudly.
func (d *Diff) Removed() []string {
	var out []string
	for _, c := range d.Cells {
		if c.Status == StatusRemoved {
			out = append(out, c.Name)
		}
	}
	return out
}

// Changed reports whether anything at all moved — improvements and
// within-tolerance drift included: the signal that the committed baseline
// should be refreshed. Unlike Regressed it ignores the gate tolerance.
func (d *Diff) Changed() bool {
	for _, c := range d.Cells {
		if c.Status == StatusAdded || c.Status == StatusRemoved || c.OldCycles != c.NewCycles {
			return true
		}
	}
	return false
}

// WriteJSON writes the diff as indented JSON.
func (d *Diff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Markdown renders the diff as a GitHub-flavoured markdown table (the CI
// job summary), with a per-stage attribution breakdown for every cell
// whose cycles moved.
func (d *Diff) Markdown() string {
	var b strings.Builder
	b.WriteString("| cell | cycles (base) | cycles (new) | Δ% | p50 | p99 | status |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---|\n")
	for _, c := range d.Cells {
		fmt.Fprintf(&b, "| %s | %d | %d | %+.3f%% | %d → %d | %d → %d | %s |\n",
			c.Name, c.OldCycles, c.NewCycles, c.DeltaPct,
			c.OldP50, c.NewP50, c.OldP99, c.NewP99, c.Status)
	}
	for _, c := range d.Cells {
		if len(c.Stages) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n**%s** attribution movement:\n\n", c.Name)
		b.WriteString("| stage | base | new | Δ cycles |\n|---|---:|---:|---:|\n")
		for _, s := range c.Stages {
			fmt.Fprintf(&b, "| %s | %d | %d | %+d |\n", s.Stage, s.Old, s.New, s.Delta)
		}
	}
	return b.String()
}
