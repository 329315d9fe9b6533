package experiments

import "shadowblock/internal/trace"

// Result is what an experiment returns: a Table, or one of the layouts a
// Table cannot hold (Table I's prose cells, Fig 6's two panels, the engine
// matrix's string columns). Render is the text paperbench prints.
type Result interface{ Render() string }

// text is an already-rendered result.
type text string

func (t text) Render() string { return string(t) }

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string // paperbench -only name and results/<Name>.txt
	Run  func(Runner) (Result, error)
}

// Registry lists every experiment, in paperbench's order: the one place
// an experiment is named. engines is the scheme list of the cross-engine
// matrix (paperbench -engines; nil is the default path-vs-ring pair).
func Registry(engines []string) []Experiment {
	return []Experiment{
		{"tableI", func(Runner) (Result, error) { return tableI(), nil }},
		{"fig6", func(r Runner) (Result, error) {
			p, _ := trace.ByName("hmmer")
			return fig06(r, p)
		}},
		{"fig8", func(r Runner) (Result, error) { return decomposition(r, false) }},
		{"fig9", func(r Runner) (Result, error) { return partitionSweep(r, false) }},
		{"fig10", func(r Runner) (Result, error) { return fig10(r) }},
		{"fig11", func(r Runner) (Result, error) { return slowdowns(r, false, 7) }},
		{"fig12", func(r Runner) (Result, error) { return fig12(r) }},
		{"fig13", func(r Runner) (Result, error) { return decomposition(r, true) }},
		{"fig14", func(r Runner) (Result, error) { return partitionSweep(r, true) }},
		{"fig15", func(r Runner) (Result, error) { return slowdowns(r, true, 4) }},
		{"fig16", func(r Runner) (Result, error) { return fig16(r) }},
		{"fig17", func(r Runner) (Result, error) { return fig17(r) }},
		{"fig18", func(r Runner) (Result, error) { return fig18(r) }},
		{"fig19", func(r Runner) (Result, error) { return fig19(r) }},
		{"ablation", func(r Runner) (Result, error) { return ablation(r) }},
		{"ring", func(r Runner) (Result, error) { return engineMatrix(r, ringSchemes) }},
		{"engines", func(r Runner) (Result, error) { return engineMatrix(r, engines) }},
		{"occupancy", func(r Runner) (Result, error) { return occupancy(r) }},
	}
}
