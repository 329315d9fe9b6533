package experiments

import (
	"shadowblock/internal/cpu"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// Run executes one (workload, scheme) cell.
func (r Runner) Run(p trace.Profile, cpuCfg cpu.Config, s Scheme) (sim.Metrics, error) {
	return sim.Run(s.Spec(p, cpuCfg, r.Refs, r.Seed))
}
