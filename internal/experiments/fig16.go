package experiments

import (
	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
)

// fig16 reproduces Fig. 16: the on-chip (stash + treetop) hit rate of
// treetop-3 and treetop-7 caching, with and without shadow blocks, under
// timing protection. Hit rates may be zero, so the summary is the
// arithmetic mean (the paper plots absolute rates).
func fig16(r Runner) (*Table, error) {
	d3 := core.Dynamic(3)
	schemes := []Scheme{
		{Name: "treetop-3", TP: true, Treetop: 3},
		{Name: "shadow+treetop-3", TP: true, Treetop: 3, Policy: &d3},
		{Name: "treetop-7", TP: true, Treetop: 7},
		{Name: "shadow+treetop-7", TP: true, Treetop: 7, Policy: &d3},
	}
	m, err := r.matrix(cpu.InOrder(), schemes, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:      "Fig 16: on-chip (stash+treetop) hit rate, with and without shadow blocks",
		Label:      "bench",
		SummaryRow: "mean",
	}
	for _, s := range schemes {
		t.Columns = append(t.Columns, Column{Name: s.Name, Format: "%.3f", Mean: true})
	}
	for w, ms := range m {
		row := Row{Label: r.Workloads[w].Name}
		for _, x := range ms {
			row.Values = append(row.Values, x.OnChipHitRate)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig17 reproduces Fig. 17: speedup over Tiny ORAM of XOR compression,
// shadow block (dynamic-3), and shadow block combined with treetop-3 /
// treetop-7 caching, under timing protection.
func fig17(r Runner) (*Table, error) {
	d3 := core.Dynamic(3)
	t, err := r.relative(cpu.InOrder(), []Scheme{
		schemeTiny(true),
		{Name: "xor", TP: true, XOR: true},
		{Name: "shadow", TP: true, Policy: &d3},
		{Name: "shadow+treetop-3", TP: true, Treetop: 3, Policy: &d3},
		{Name: "shadow+treetop-7", TP: true, Treetop: 7, Policy: &d3},
	}, "%.3f", speedup)
	if err != nil {
		return nil, err
	}
	t.Title = "Fig 17: speedup over Tiny ORAM vs related work (timing protection)"
	return t, nil
}

// fig18 reproduces Fig. 18: the dynamic-3 speedup over Tiny ORAM for the
// in-order core and the quad-core out-of-order configuration, under timing
// protection. Higher memory-level parallelism shortens the DRI, so the
// out-of-order speedup should be smaller.
func fig18(r Runner) (*Table, error) {
	run := func(cc cpu.Config, column string) (*Table, error) {
		return r.relative(cc, []Scheme{schemeTiny(true), schemePolicy(column, true, core.Dynamic(3))}, "%.3f", speedup)
	}
	t, err := run(cpu.InOrder(), "in-order")
	if err != nil {
		return nil, err
	}
	o3, err := run(cpu.O3(), "out-of-order")
	if err != nil {
		return nil, err
	}
	t.Columns = append(t.Columns, o3.Columns...)
	for i := range t.Rows {
		t.Rows[i].Values = append(t.Rows[i].Values, o3.Rows[i].Values...)
	}
	t.Title = "Fig 18: dynamic-3 speedup over Tiny ORAM by CPU type (timing protection)"
	return t, nil
}
