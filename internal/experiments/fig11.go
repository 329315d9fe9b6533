package experiments

import (
	"fmt"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
)

// vsInsecure is the scheme set of Figs. 11, 12 and 15: the insecure
// baseline, Tiny ORAM, the static partition at the given level and
// dynamic-3.
func vsInsecure(tp bool, staticLevel int) []Scheme {
	return []Scheme{
		schemeInsecure(),
		schemeTiny(tp),
		schemePolicy(fmt.Sprintf("static-%d", staticLevel), tp, core.Static(staticLevel)),
		schemePolicy("dynamic-3", tp, core.Dynamic(3)),
	}
}

// slowdowns reproduces Fig. 11 (no timing protection, static level 7, the
// Fig. 9 optimum in the paper) and Fig. 15 (timing protection, static
// level 4, the Fig. 14 optimum): per-workload slowdown relative to the
// insecure system.
func slowdowns(r Runner, tp bool, staticLevel int) (*Table, error) {
	t, err := r.relative(cpu.InOrder(), vsInsecure(tp, staticLevel), "%.2f", slowdown)
	if err != nil {
		return nil, err
	}
	t.Title = "Fig 11 (no timing protection): slowdown vs the insecure system"
	if tp {
		t.Title = "Fig 15 (timing protection): slowdown vs the insecure system"
	}
	return t, nil
}

// fig12 reproduces Fig. 12: memory-system energy of tiny / static-7 /
// dynamic-3 normalised to the insecure system, without timing protection.
func fig12(r Runner) (*Table, error) {
	t, err := r.relative(cpu.InOrder(), vsInsecure(false, 7), "%.1f", energy)
	if err != nil {
		return nil, err
	}
	t.Title = "Fig 12: energy normalized to the insecure system (no timing protection)"
	return t, nil
}
