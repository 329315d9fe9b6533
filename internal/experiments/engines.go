package experiments

import (
	"fmt"
	"strings"

	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/stats"
)

// The cross-engine matrix: the same workloads and the same duplication
// policy evaluated on every registered ORAM engine, with each engine's
// own cycle-attribution vocabulary alongside. This is the experiment the
// engine seam exists for — one scheme grammar, one runner, one table
// spanning structurally different protocols.

// EngineCell is one (workload, scheme) measurement of the matrix.
type EngineCell struct {
	Engine       string  // resolved engine name ("path", "ring", ...)
	Cycles       int64   // total execution cycles
	Speedup      float64 // first scheme's cycles / this scheme's cycles
	BlocksPerReq float64 // DRAM blocks moved per ORAM request
	ShadowPerK   float64 // shadow forwards + hits per 1000 requests
	// Attribution is the engine's ledger broken into its own stage
	// vocabulary, e.g. "posmap 12.1% path_read 30.9%" for the Path engine
	// vs "ring_read 9.1% ring_evict 46.2%" for Ring.
	Attribution string
}

// EngineMatrixFig holds the matrix, indexed [workload][scheme].
type EngineMatrixFig struct {
	Workloads []string
	Schemes   []string
	Cells     [][]EngineCell
}

// DefaultEngineSchemes is the canonical path-vs-ring comparison: the
// paper's Dynamic(3) shadow policy on both engines.
func DefaultEngineSchemes() []string {
	return []string{"dynamic-3", "ring:dynamic-3"}
}

// RingSchemes is the §II-C generality study (paperbench -only ring):
// shadow blocks on Ring ORAM against plain Ring, the speedup baseline, with
// Tiny ORAM alongside for the blocks-moved-per-request comparison.
func RingSchemes() []string {
	return []string{"ring:tiny", "ring:dynamic-3", "tiny"}
}

// EngineMatrix evaluates every workload against every scheme (each
// typically naming a different engine) with the attribution ledger
// attached, so the table carries each engine's stage breakdown. The
// first scheme is the speedup baseline.
func EngineMatrix(r Runner, schemes []string) (*EngineMatrixFig, error) {
	if len(schemes) == 0 {
		schemes = DefaultEngineSchemes()
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
	out := &EngineMatrixFig{Workloads: r.names(), Schemes: schemes}
	out.Cells = make([][]EngineCell, len(r.Workloads))
	for i := range out.Cells {
		out.Cells[i] = make([]EngineCell, len(schemes))
	}
	nw, ns := len(r.Workloads), len(schemes)
	err := parMap(nw*ns, func(k int) error {
		wi, si := k/ns, k%ns
		col := metrics.New(metrics.Options{Ledger: true})
		m, err := r.Observe(r.Workloads[wi], cpu.InOrder(), parsed[si], col)
		if err != nil {
			return err
		}
		c := EngineCell{Cycles: m.Cycles}
		if m.Obs != nil {
			c.Engine = m.Obs.Engine
			c.Attribution = attribution(m.Obs.Ledger)
		}
		if m.ORAM.Requests > 0 {
			c.BlocksPerReq = float64(m.Mem.Reads+m.Mem.Writes) / float64(m.ORAM.Requests)
			c.ShadowPerK = 1000 * float64(m.ORAM.ShadowForwards+m.ORAM.ShadowStashHits) / float64(m.ORAM.Requests)
		}
		out.Cells[wi][si] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for wi := range out.Cells {
		base := float64(out.Cells[wi][0].Cycles)
		for si := range out.Cells[wi] {
			out.Cells[wi][si].Speedup = base / float64(out.Cells[wi][si].Cycles)
		}
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
	t := stats.NewTable("bench", "scheme", "engine", "cycles", "speedup", "blk/req", "shadow/1k", "attribution")
	perScheme := make([][]float64, len(f.Schemes))
	for wi, w := range f.Workloads {
		for si, sc := range f.Schemes {
			c := f.Cells[wi][si]
			t.Row(w, sc, c.Engine,
				fmt.Sprintf("%d", c.Cycles),
				fmt.Sprintf("%.3f", c.Speedup),
				fmt.Sprintf("%.1f", c.BlocksPerReq),
				fmt.Sprintf("%.1f", c.ShadowPerK),
				c.Attribution)
			perScheme[si] = append(perScheme[si], c.Speedup)
		}
	}
	for si, sc := range f.Schemes {
		t.Row("gmean", sc, f.Cells[0][si].Engine,
			"", fmt.Sprintf("%.3f", stats.Gmean(perScheme[si])), "", "", "")
	}
	return "Engine matrix: one policy, every registered engine (speedup vs " +
		f.Schemes[0] + ")\n" + t.String()
}
