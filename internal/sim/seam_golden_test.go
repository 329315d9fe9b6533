package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// TestSeamGoldens pins the six smoke cells — serial, pipelined,
// two-channel, quad-core, decoupled writeback and Ring, all on mcf at
// 20 000 refs, seed 7 — to their exact total cycles and to every
// cycle-attribution ledger stage, with no ledger violation. The simulator
// is deterministic, so any drift is a behaviour change: a PR that means to
// move cycles updates these rows, and the failure line (`stage old → new
// (Δ)`) says where the cycles went. The 3 000-ref configuration-class rows
// of the same name live in internal/experiments.
func TestSeamGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden := []struct {
		cell   string
		scheme string
		cpu    cpu.Config
		cycles int64
		stages map[string]int64
	}{
		{"serial", "dynamic-3", cpu.InOrder(), 27199287, map[string]int64{
			"queue_wait": 7991289, "coalesce": 0, "posmap_walk": 9073979,
			"path_read": 9390518, "stash_update": 0, "evict_drain": 7761155,
		}},
		{"pipelined", "dynamic-3-pipe", cpu.InOrder(), 26461704, map[string]int64{
			"queue_wait": 5813507, "coalesce": 0, "posmap_walk": 8810030,
			"path_read": 11040477, "stash_update": 0, "evict_drain": 7982429,
		}},
		{"channels", "dynamic-3-pipe-c2", cpu.InOrder(), 23497526, map[string]int64{
			"queue_wait": 3833046, "coalesce": 0, "posmap_walk": 7669104,
			"path_read": 10929540, "stash_update": 0, "evict_drain": 5634428,
		}},
		{"quadcore", "dynamic-3-pipe-c4-core4", cpu.O3(), 68623165, map[string]int64{
			"queue_wait": 338733996, "coalesce": 45499, "posmap_walk": 26201450,
			"path_read": 27892458, "stash_update": 0, "evict_drain": 20176360,
		}},
		{"wbd", "dynamic-3-pipe-c4-wbd", cpu.InOrder(), 15358356, map[string]int64{
			"queue_wait": 2498782, "coalesce": 0, "posmap_walk": 4830933,
			"path_read": 6473391, "stash_update": 0, "evict_drain": 2964971,
		}},
		{"ring", "ring:dynamic-3", cpu.InOrder(), 19824599, map[string]int64{
			"queue_wait": 15238332, "coalesce": 0, "posmap_walk": 0,
			"ring_read": 3135069, "stash_update": 0, "ring_evict": 15468306,
		}},
	}
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	for _, g := range golden {
		t.Run(g.cell, func(t *testing.T) {
			t.Parallel()
			s, err := experiments.ParseScheme(g.scheme)
			if err != nil {
				t.Fatal(err)
			}
			spec := s.Spec(p, g.cpu, 20000, 7)
			spec.Metrics = metrics.New(metrics.Options{Ledger: true})
			m, err := sim.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			led := m.Obs.Ledger
			var moved []string
			if m.Cycles != g.cycles {
				moved = append(moved, delta("cycles", g.cycles, m.Cycles))
			}
			// A stage the ledger stops reporting changes the count; one it
			// starts reporting is pinned at 0 cycles below.
			if len(led.Stages) != len(g.stages) {
				moved = append(moved, fmt.Sprintf("%d ledger stages, want %d", len(led.Stages), len(g.stages)))
			}
			for _, st := range led.Stages {
				if want := g.stages[st.Stage]; st.Cycles != want {
					moved = append(moved, delta(st.Stage, want, st.Cycles))
				}
			}
			if led.Violations != 0 {
				moved = append(moved, fmt.Sprintf("ledger violations %d, want 0", led.Violations))
			}
			if len(moved) > 0 {
				t.Errorf("%s (%s): %s", g.cell, g.scheme, strings.Join(moved, "; "))
			}
		})
	}
}

// delta renders one pinned value that moved as `name old → new (Δ)`.
func delta(name string, old, neu int64) string {
	return fmt.Sprintf("%s %d → %d (%+d)", name, old, neu, neu-old)
}
