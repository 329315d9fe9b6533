package experiments

import (
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// TestSeamGoldens pins every pre-seam Path ORAM configuration class —
// serial, duplicated, pipelined, multi-channel, multi-core, decoupled
// writeback — and Ring's DRI-independent schemes to the exact cycle counts
// and controller counters the pre-refactor code produced (mcf, 3000 refs,
// seed 7, in-order CPU).
// The engine seam routes construction through the registry
// (core.NewUnbound → oram.NewEngine, whose constructor binds the policy);
// this test is the proof that the seam and the single-stage-sequence
// engine behind it are bit-identical to that code, and the explicit
// "path:" spelling must land on the same numbers as the implied default.
func TestSeamGoldens(t *testing.T) {
	golden := []struct {
		scheme     string
		cycles     int64
		requests   uint64
		stashHits  uint64
		shadowHits uint64
	}{
		{"tiny", 4174277, 2136, 1, 0},
		{"dynamic-3", 4153432, 2136, 2, 21},
		{"dynamic-3-pipe", 4013923, 2136, 2, 21},
		{"dynamic-3-pipe-c2", 3575358, 2136, 2, 21},
		{"dynamic-3-pipe-c4-core4", 8893854, 8648, 0, 72},
		{"dynamic-3-pipe-c4-wbd", 2338825, 2136, 2, 21},
		{"path:dynamic-3", 4153432, 2136, 2, 21},
		// Axis combinations the rows above leave out: decoupled writeback
		// and channels each without the pipeline, both together, and the
		// pipeline under -wbd (where it is inert: same cycles as -wbd).
		{"dynamic-3-wbd", 3822706, 2136, 2, 21},
		{"dynamic-3-c2", 3601197, 2136, 2, 21},
		{"dynamic-3-c2-wbd", 3469643, 2136, 2, 21},
		{"dynamic-3-pipe-wbd", 3822706, 2136, 2, 21},
		// Ring, on the schemes that never read the DRI signal (the policy's
		// NoteORAMRequest returns early unless the mode is dynamic): captured
		// before Ring moved onto the shared config, counters, placement and
		// request clock, so these rows are that move's bit-identity proof.
		{"ring:tiny", 3117163, 2136, 1, 0},
		{"ring:hd", 3087351, 2136, 0, 21},
		{"ring:static-4", 3086582, 2136, 0, 20},
		{"ring:tiny-core2", 5752683, 4253, 0, 0},
	}
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	r := Runner{Refs: 3000, Seed: 7, Workloads: []trace.Profile{p}}
	for _, g := range golden {
		g := g
		t.Run(g.scheme, func(t *testing.T) {
			t.Parallel()
			s, err := ParseScheme(g.scheme)
			if err != nil {
				t.Fatal(err)
			}
			m, err := r.Run(p, cpu.InOrder(), s)
			if err != nil {
				t.Fatal(err)
			}
			if m.Cycles != g.cycles {
				t.Errorf("cycles = %d, want the pre-seam %d", m.Cycles, g.cycles)
			}
			if m.ORAM.Requests != g.requests || m.ORAM.StashHits != g.stashHits ||
				m.ORAM.ShadowStashHits != g.shadowHits {
				t.Errorf("counters = req %d stash %d shadow %d, want %d/%d/%d",
					m.ORAM.Requests, m.ORAM.StashHits, m.ORAM.ShadowStashHits,
					g.requests, g.stashHits, g.shadowHits)
			}
		})
	}
}

// TestRingDynamicPartitionMoves: without timing protection the shared
// request clock feeds the policy the virtual-dummy DRI signal on long gaps,
// for Ring exactly as for Path, so on a compute-bound profile ring:dynamic-3
// partitions below the leaf level and is no longer ring:hd under another
// name (before Ring stood on the shared clock it never sent the signal: both
// schemes ran the same cycles with the partition pinned at L+1).
func TestRingDynamicPartitionMoves(t *testing.T) {
	p, ok := trace.ByName("namd")
	if !ok {
		t.Fatal("namd profile missing")
	}
	r := Runner{Refs: 8000, Seed: 7, Workloads: []trace.Profile{p}}
	run := func(name string) sim.Metrics {
		s, err := ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run(p, cpu.InOrder(), s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	dyn, hd := run("ring:dynamic-3"), run("ring:hd")
	if dyn.Cycles == hd.Cycles {
		t.Errorf("ring:dynamic-3 and ring:hd both ran %d cycles: the DRI signal never reached the policy", dyn.Cycles)
	}
	if leaf := float64(oram.Default().L + 1); dyn.MeanPartition <= 0 || dyn.MeanPartition >= leaf {
		t.Errorf("ring:dynamic-3 mean partition %.2f, want it moving below L+1 = %.0f", dyn.MeanPartition, leaf)
	}
}
