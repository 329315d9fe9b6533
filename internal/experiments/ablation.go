package experiments

import (
	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/sim"
)

// ablation separates shadow block's two benefit channels under timing
// protection, a design question DESIGN.md calls out: early forwarding (a
// tree shadow arrives before the real block, trimming the DRI) versus
// request avoidance (a stash-resident shadow serves the read outright).
// Disabling shadow stash hits leaves only the early-forward channel.
func ablation(r Runner) (*Table, error) {
	d3 := schemePolicy("dynamic-3", true, core.Dynamic(3))
	m, err := r.matrix(cpu.InOrder(), []Scheme{schemeTiny(true), d3, d3}, func(_, s int, spec *sim.Spec) {
		spec.ORAM.DisableShadowHits = s == 2
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: request avoidance vs early forwarding (dynamic-3, timing protection)",
		Label: "bench",
		Columns: append(cols("%.3f", "full", "forward-only"),
			Column{Name: "hits/1k", Format: "%.3f", Mean: true},
			Column{Name: "early-fwd/1k", Format: "%.3f", Mean: true}),
		SummaryRow: "gmean/mean",
	}
	for w, ms := range m {
		tiny, full, fwd := ms[0], ms[1], ms[2]
		req := float64(full.ORAM.Requests)
		t.Rows = append(t.Rows, Row{Label: r.Workloads[w].Name, Values: []float64{
			slowdown(full, tiny),
			slowdown(fwd, tiny),
			1000 * float64(full.ORAM.ShadowStashHits) / req,
			1000 * float64(full.ORAM.ShadowForwards) / req,
		}})
	}
	return t, nil
}
