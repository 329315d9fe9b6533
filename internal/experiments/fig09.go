package experiments

import (
	"fmt"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/stats"
)

// picks are the representative benchmarks the sweep figures plot beside
// the all-workload geometric mean.
var picks = []string{"sjeng", "h264ref", "namd"}

// partitionSweep reproduces Fig. 9 (no timing protection) and Fig. 14
// (with): static partitioning swept across levels 0, 2, ... L (the paper
// plots 0..24 in steps of 4; the scaled tree has L=18), reporting
// normalised DRI, data-access time and total per level for the picks and
// the all-workload gmean total.
func partitionSweep(r Runner, tp bool) (*Table, error) {
	const step = 2
	schemes := []Scheme{schemeTiny(tp)}
	for lv := 0; lv <= 19; lv += step {
		schemes = append(schemes, schemePolicy(fmt.Sprintf("P=%d", lv), tp, core.Static(lv)))
	}
	m, err := r.matrix(cpu.InOrder(), schemes, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{Label: "series", SummaryRow: "gmean-total"}
	for _, s := range schemes[1:] {
		t.Columns = append(t.Columns, Column{Name: s.Name, Format: "%.3f"})
	}
	for w, ms := range m {
		wl := r.Workloads[w].Name
		base := float64(ms[0].Cycles)
		interval := Row{Label: wl + "-interval", Detail: true}
		data := Row{Label: wl + "-data", Detail: true}
		total := Row{Label: wl + "-total"}
		for _, x := range ms[1:] {
			interval.Values = append(interval.Values, float64(x.DRI)/base)
			data.Values = append(data.Values, float64(x.DataAccess)/base)
			total.Values = append(total.Values, float64(x.Cycles)/base)
		}
		t.Rows = append(t.Rows, interval, data, total)
	}
	for _, p := range picks {
		t.Show = append(t.Show, p+"-interval", p+"-data", p+"-total")
	}
	name := "Fig 9 (no timing protection)"
	if tp {
		name = "Fig 14 (timing protection)"
	}
	g := t.Summary()
	best := argmin(g)
	t.Title = fmt.Sprintf("%s: static partitioning sweep (best level %d, gmean total %.3f)", name, step*best, g[best])
	t.Note = "gmean shape: " + stats.Spark(g) + "\n"
	return t, nil
}

// fig10 reproduces Fig. 10: dynamic partitioning with DRI-counter widths
// 1..8 bits, normalised to Tiny ORAM (the paper uses the no-timing-
// protection configuration here; §VI-C reports the same 3-bit optimum
// with protection).
func fig10(r Runner) (*Table, error) {
	schemes := []Scheme{schemeTiny(false)}
	for w := 1; w <= 8; w++ {
		schemes = append(schemes, schemePolicy(fmt.Sprintf("%d-bit", w), false, core.Dynamic(w)))
	}
	t, err := r.relative(cpu.InOrder(), schemes, "%.3f", slowdown)
	if err != nil {
		return nil, err
	}
	t.Label, t.Show = "series", picks
	g := t.Summary()
	best := argmin(g)
	t.Title = fmt.Sprintf("Fig 10: DRI-counter width sweep (best %d-bit, gmean total %.3f)", best+1, g[best])
	t.Note = "gmean shape: " + stats.Spark(g) + "\n"
	return t, nil
}
