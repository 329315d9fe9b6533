// Package stats provides the small numeric and formatting helpers the
// evaluation harness uses: geometric means, normalisation, and aligned
// text table rendering.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Gmean returns the geometric mean of xs. It panics on non-positive inputs
// (normalised times and speedups are always positive).
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Gmean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders rows as an aligned text table. The first row is the
// header; cells are left-aligned for the first column and right-aligned
// otherwise.
type Table struct {
	rows [][]string
}

// NewTable starts a table with a header row.
func NewTable(header ...string) *Table {
	t := &Table{}
	t.rows = append(t.rows, header)
	return t
}

// Row appends a row of cells; numbers should be pre-formatted.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row with a label and formatted float64 columns.
func (t *Table) Rowf(label string, format string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.rows = append(t.rows, cells)
}

// String renders the aligned table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range t.rows {
		for i, c := range r {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
