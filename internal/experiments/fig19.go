package experiments

import (
	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/sim"
	"shadowblock/internal/stats"
)

// fig19 reproduces Fig. 19: the dynamic-3 speedup over Tiny ORAM as the
// data ORAM size sweeps 1–16 GB (scaled trees L=16..20, the constant 1/64
// ratio of DESIGN.md §6), under timing protection.
func fig19(r Runner) (*Table, error) {
	sizes := []struct {
		label string
		l     int
	}{
		{"1GB", 16}, {"2GB", 17}, {"4GB", 18}, {"8GB", 19}, {"16GB", 20},
	}
	// One sweep over every (size, workload): footprints keep their
	// proportion of the tree across sizes, and each cell's tree is patched
	// to its size.
	nw := len(r.Workloads)
	all := Runner{Refs: r.Refs, Seed: r.Seed}
	for _, sz := range sizes {
		for _, p := range r.Workloads {
			all.Workloads = append(all.Workloads, p.Scaled(1<<uint(sz.l), 1<<18))
		}
	}
	schemes := []Scheme{schemeTiny(true), schemePolicy("dynamic-3", true, core.Dynamic(3))}
	m, err := all.matrix(cpu.InOrder(), schemes, func(w, _ int, spec *sim.Spec) {
		spec.ORAM.L = sizes[w/nw].l
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 19: dynamic-3 speedup over Tiny ORAM by data ORAM size (timing protection)",
		Label:   "size",
		Columns: []Column{{Name: "L", Format: "%.0f"}, {Name: "gmean speedup", Format: "%.3f"}},
	}
	for si, sz := range sizes {
		var sp []float64
		for _, ms := range m[si*nw : (si+1)*nw] {
			sp = append(sp, speedup(ms[1], ms[0]))
		}
		t.Rows = append(t.Rows, Row{Label: sz.label, Values: []float64{float64(sz.l), stats.Gmean(sp)}})
	}
	return t, nil
}
