package experiments

import (
	"fmt"

	"shadowblock/internal/cpu"
	"shadowblock/internal/sim"
	"shadowblock/internal/stats"
)

// Table is the result of every numeric experiment: labelled rows, one
// metric per column, and an optional summary row aggregating each column
// over the rows. It holds the evaluation's only summary-row code.
type Table struct {
	Title      string // caption printed above the grid
	Label      string // header of the row-label column
	Columns    []Column
	Rows       []Row
	SummaryRow string   // label of the summary row; "" prints none
	Show       []string // labels of the rows to print, in this order; nil prints every row
	Note       string   // text printed under the grid
}

// Column is one metric of a Table.
type Column struct {
	Name   string
	Format string // printf verb of its cells
	Mean   bool   // summarised by the arithmetic mean (rates that may be zero), not the geometric
}

// cols makes one gmean-summarised column per name, all printed in format.
func cols(format string, names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n, Format: format}
	}
	return out
}

// Row is one labelled line of a Table.
type Row struct {
	Label  string
	Values []float64 // one per column
	Detail bool      // a component breakdown: printed, never summarised
}

// Summary aggregates every column over the rows that are not Detail: the
// geometric mean, a non-positive cell counting as 1e-9 so a zero component
// cannot break it, or the arithmetic mean for Mean columns.
func (t *Table) Summary() []float64 {
	out := make([]float64, len(t.Columns))
	for c, col := range t.Columns {
		var xs []float64
		for _, r := range t.Rows {
			if !r.Detail {
				xs = append(xs, r.Values[c])
			}
		}
		if col.Mean {
			out[c] = stats.Mean(xs)
			continue
		}
		for i, x := range xs {
			if x <= 0 {
				xs[i] = 1e-9
			}
		}
		out[c] = stats.Gmean(xs)
	}
	return out
}

// Render prints the title, the grid — the shown rows, then the summary
// row — and the note.
func (t *Table) Render() string {
	header := []string{t.Label}
	for _, c := range t.Columns {
		header = append(header, c.Name)
	}
	g := stats.NewTable(header...)
	add := func(label string, vals []float64) {
		cells := []string{label}
		for c, v := range vals {
			cells = append(cells, fmt.Sprintf(t.Columns[c].Format, v))
		}
		g.Row(cells...)
	}
	rows := t.Rows
	if t.Show != nil {
		rows = nil
		for _, label := range t.Show {
			for _, r := range t.Rows {
				if r.Label == label {
					rows = append(rows, r)
				}
			}
		}
	}
	for _, r := range rows {
		add(r.Label, r.Values)
	}
	if t.SummaryRow != "" {
		add(t.SummaryRow, t.Summary())
	}
	return t.Title + "\n" + g.String() + t.Note
}

// relative sweeps schemes over every workload and tabulates one row per
// workload, one column per scheme after the first (named after it):
// cell(m, base), base being the workload's run of schemes[0]. The summary
// row is the gmean.
func (r Runner) relative(cpuCfg cpu.Config, schemes []Scheme, format string, cell func(m, base sim.Metrics) float64) (*Table, error) {
	m, err := r.matrix(cpuCfg, schemes, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{Label: "bench", SummaryRow: "gmean"}
	for _, s := range schemes[1:] {
		t.Columns = append(t.Columns, Column{Name: s.Name, Format: format})
	}
	for w, ms := range m {
		row := Row{Label: r.Workloads[w].Name}
		for _, x := range ms[1:] {
			row.Values = append(row.Values, cell(x, ms[0]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// The cells of the relative figures.
func slowdown(m, base sim.Metrics) float64 { return float64(m.Cycles) / float64(base.Cycles) }
func speedup(m, base sim.Metrics) float64  { return float64(base.Cycles) / float64(m.Cycles) }
func energy(m, base sim.Metrics) float64   { return m.Energy / base.Energy }

// argmin returns the index of the first smallest value.
func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
