package experiments

import (
	"fmt"
	"strings"

	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/sim"
	"shadowblock/internal/stats"
)

// The cross-engine matrix: the same workloads and the same duplication
// policy evaluated on every registered ORAM engine, with each engine's
// own cycle-attribution vocabulary alongside. This is the experiment the
// engine seam exists for — one scheme grammar, one runner, one table
// spanning structurally different protocols.

// EngineCell is one (workload, scheme) measurement of the matrix.
type EngineCell struct {
	Engine                    string  // resolved engine name ("path", "ring", ...)
	Cycles                    int64   // total execution cycles
	Speedup                   float64 // first scheme's cycles / this scheme's cycles
	BlocksPerReq, ReadsPerReq float64 // DRAM blocks moved, and of them read, per ORAM request
	ShadowPerK                float64 // shadow forwards + hits per 1000 requests
	// Attribution is the engine's ledger broken into its stages, under the
	// keys every engine shares, e.g. "posmap_walk 12.1% path_read 30.9%":
	// Path and Ring rows compare stage by stage.
	Attribution string
}

// EngineMatrixFig holds the matrix, indexed [workload][scheme].
type EngineMatrixFig struct {
	Workloads []string
	Schemes   []string
	Cells     [][]EngineCell
}

// ringSchemes is the §II-C generality study (paperbench -only ring):
// shadow blocks on Ring ORAM against plain Ring, the speedup baseline, with
// Tiny ORAM alongside for the blocks-moved-per-request comparison.
var ringSchemes = []string{"ring:tiny", "ring:dynamic-3", "tiny"}

// engineMatrix evaluates every workload against every scheme (each
// typically naming a different engine) with the attribution ledger
// attached, so the table carries each engine's stage breakdown. The
// first scheme is the speedup baseline; no schemes means the canonical
// path-vs-ring comparison, the paper's Dynamic(3) shadow policy on both.
func engineMatrix(r Runner, schemes []string) (*EngineMatrixFig, error) {
	if len(schemes) == 0 {
		schemes = []string{"dynamic-3", "ring:dynamic-3"}
	}
	parsed := make([]Scheme, len(schemes))
	for i, name := range schemes {
		s, err := ParseScheme(name)
		if err != nil {
			return nil, err
		}
		if s.Insecure {
			return nil, fmt.Errorf("experiments: engine matrix compares ORAM engines; %q has none", name)
		}
		parsed[i] = s
	}
	m, err := r.matrix(cpu.InOrder(), parsed, func(_, _ int, spec *sim.Spec) {
		spec.Metrics = metrics.New(metrics.Options{Ledger: true})
	})
	if err != nil {
		return nil, err
	}
	out := &EngineMatrixFig{Schemes: schemes}
	for w, ms := range m {
		out.Workloads = append(out.Workloads, r.Workloads[w].Name)
		row := make([]EngineCell, len(ms))
		for s, x := range ms {
			c := EngineCell{Cycles: x.Cycles, Speedup: speedup(x, ms[0])}
			if x.Obs != nil {
				c.Engine = x.Obs.Engine
				c.Attribution = attribution(x.Obs.Ledger)
			}
			if req := float64(x.ORAM.Requests); req > 0 {
				c.BlocksPerReq, c.ReadsPerReq = float64(x.Mem.Reads+x.Mem.Writes)/req, float64(x.Mem.Reads)/req
				c.ShadowPerK = 1000 * float64(x.ORAM.ShadowForwards+x.ORAM.ShadowStashHits) / req
			}
			row[s] = c
		}
		out.Cells = append(out.Cells, row)
	}
	return out, nil
}

// attribution renders a ledger report's non-empty stages as
// "name p% name p%" in stage order, percentages over attributed cycles.
func attribution(led *metrics.LedgerReport) string {
	if led == nil {
		return ""
	}
	total := led.CompleteCycles + led.Stage("coalesce").Cycles
	if total <= 0 {
		return ""
	}
	var parts []string
	for _, s := range led.Stages {
		if s.Cycles == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.Stage, 100*float64(s.Cycles)/float64(total)))
	}
	return strings.Join(parts, " ")
}

// Render produces the matrix table: one row per workload × scheme, the
// first scheme of each workload being the speedup baseline.
func (f *EngineMatrixFig) Render() string {
	t := stats.NewTable("bench", "scheme", "engine", "cycles", "speedup", "blk/req", "rd/req", "shadow/1k", "attribution")
	speedups := &Table{Columns: cols("", f.Schemes...)} // for the summary rows
	for wi, w := range f.Workloads {
		row := Row{Label: w}
		for si, sc := range f.Schemes {
			c := f.Cells[wi][si]
			t.Row(w, sc, c.Engine,
				fmt.Sprintf("%d", c.Cycles),
				fmt.Sprintf("%.3f", c.Speedup),
				fmt.Sprintf("%.1f", c.BlocksPerReq), fmt.Sprintf("%.1f", c.ReadsPerReq),
				fmt.Sprintf("%.1f", c.ShadowPerK),
				c.Attribution)
			row.Values = append(row.Values, c.Speedup)
		}
		speedups.Rows = append(speedups.Rows, row)
	}
	for si, g := range speedups.Summary() {
		t.Row("gmean", f.Schemes[si], f.Cells[0][si].Engine, "", fmt.Sprintf("%.3f", g), "", "", "", "")
	}
	return "Engine matrix: one policy, every registered engine (speedup vs " +
		f.Schemes[0] + ")\n" + t.String()
}
