package experiments

import (
	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
)

// decomposition reproduces Fig. 8 (without timing protection) and Fig. 13
// (with): per workload, the data-access time and DRI of Tiny ORAM, RD-Dup
// and HD-Dup, all normalised to Tiny ORAM's total execution time (eq. 1),
// with the shadow schemes' totals alongside.
func decomposition(r Runner, tp bool) (*Table, error) {
	schemes := []Scheme{
		schemeTiny(tp),
		schemePolicy("rd-dup", tp, core.RDOnly()),
		schemePolicy("hd-dup", tp, core.HDOnly()),
	}
	m, err := r.matrix(cpu.InOrder(), schemes, nil)
	if err != nil {
		return nil, err
	}
	name := "Fig 8 (no timing protection)"
	if tp {
		name = "Fig 13 (timing protection)"
	}
	t := &Table{
		Title: name + ": normalized access time, RD-Dup and HD-Dup vs Tiny ORAM",
		Label: "bench",
		Columns: cols("%.3f", "tiny-data", "tiny-int",
			"rd-data", "rd-int", "rd-total", "hd-data", "hd-int", "hd-total"),
		SummaryRow: "gmean",
	}
	for w, ms := range m {
		row := Row{Label: r.Workloads[w].Name}
		base := float64(ms[0].Cycles)
		for i, x := range ms {
			data, dri := float64(x.DataAccess)/base, float64(x.DRI)/base
			row.Values = append(row.Values, data, dri)
			if i > 0 {
				row.Values = append(row.Values, data+dri)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
