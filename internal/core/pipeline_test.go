package core

import (
	"testing"

	"shadowblock/internal/oram"
	_ "shadowblock/internal/ring" // register the "ring" engine
)

// buildCtrl constructs a controller for cfg under the named policy ("" =
// plain Tiny ORAM).
func buildCtrl(t *testing.T, cfg oram.Config, pcfg *Config) *oram.Controller {
	t.Helper()
	if pcfg == nil {
		return oram.MustNew(cfg, nil)
	}
	ctrl, _, err := New(cfg, *pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// buildEngine constructs the named registered engine for cfg under the
// policy (nil = none): the Path controller as buildCtrl does, any other
// engine through the seam with the policy handed over unbound.
func buildEngine(t *testing.T, engine string, cfg oram.Config, pcfg *Config) oram.Engine {
	t.Helper()
	if engine == oram.PathEngine {
		return buildCtrl(t, cfg, pcfg)
	}
	var pol oram.DupPolicy
	if pcfg != nil {
		p, err := NewUnbound(*pcfg)
		if err != nil {
			t.Fatal(err)
		}
		pol = p
	}
	eng, err := oram.NewEngine(engine, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPipelinedTouchSequenceUnchanged is the pipelined engine's security
// argument as an executable check: pipelining may move *when* an operation
// starts (writeback drain overlaps the next path read) but must never change
// *which* physical locations are touched or in what order. The (kind, leaf)
// sequence of external operations must be identical between the serial and
// pipelined engines on the same inputs, for every engine on the seam.
func TestPipelinedTouchSequenceUnchanged(t *testing.T) {
	for _, tc := range touchCases() {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := testORAMConfig()
			serialCfg.DisableShadowHits = tc.hitsOff
			pipeCfg := serialCfg
			pipeCfg.Pipeline = true

			serial := collectTrace(buildEngine(t, tc.engine, serialCfg, tc.pcfg), 400, 91)
			pipe := collectTrace(buildEngine(t, tc.engine, pipeCfg, tc.pcfg), 400, 91)
			if len(pipe) != len(serial) {
				t.Fatalf("trace length %d, serial %d", len(pipe), len(serial))
			}
			for i := range pipe {
				if pipe[i].Kind != serial[i].Kind || pipe[i].Leaf != serial[i].Leaf {
					t.Fatalf("event %d touches a different location: %+v vs serial %+v",
						i, pipe[i], serial[i])
				}
			}
		})
	}
}

// TestPipelinedShadowTraceIdenticalToTiny repeats the §IV-B trace-equality
// argument on the pipelined engine: with shadow stash hits disabled, a
// pipelined shadow ORAM and pipelined Tiny ORAM must still produce
// byte-identical external traces — start cycles included, since both engines
// overlap by the same rule.
func TestPipelinedShadowTraceIdenticalToTiny(t *testing.T) {
	for _, tp := range []bool{false, true} {
		name := "plain"
		if tp {
			name = "timing-protection"
		}
		t.Run(name, func(t *testing.T) {
			base := testORAMConfig()
			base.DisableShadowHits = true
			base.Pipeline = true
			if tp {
				base.TimingProtection = true
				base.RequestRate = 800
			}
			tiny := collectTrace(oram.MustNew(base, nil), 300, 83)
			ctrl, _, err := New(base, Dynamic(3))
			if err != nil {
				t.Fatal(err)
			}
			got := collectTrace(ctrl, 300, 83)
			if len(got) != len(tiny) {
				t.Fatalf("trace length %d, tiny %d", len(got), len(tiny))
			}
			for i := range got {
				if got[i] != tiny[i] {
					t.Fatalf("event %d differs: %+v vs %+v", i, got[i], tiny[i])
				}
			}
		})
	}
}

// TestPipelinedEngineOverlaps drives the pipelined engine and checks it in
// fact pipelines: some path reads issue while an eviction writeback is still
// draining, total cycles drop versus serial, and the controller's internal
// invariants survive the reordering.
func TestPipelinedEngineOverlaps(t *testing.T) {
	serialCfg := testORAMConfig()
	pipeCfg := serialCfg
	pipeCfg.Pipeline = true

	serial := oram.MustNew(serialCfg, nil)
	pipe := oram.MustNew(pipeCfg, nil)
	_, serialDone, serialDrain := driveGolden(serial)
	_, pipeDone, pipeDrain := driveGolden(pipe)

	st := pipe.Stats()
	if st.PipelinedReads == 0 {
		t.Fatal("pipelined engine never overlapped a path read with a writeback")
	}
	if st.OverlapCycles == 0 {
		t.Fatal("pipelined engine reports overlapping reads but zero cycles reclaimed")
	}
	if pipeDrain >= serialDrain {
		t.Fatalf("pipelining did not finish earlier: drain %d vs serial %d", pipeDrain, serialDrain)
	}
	if pipeDone >= serialDone {
		t.Fatalf("pipelining did not lower summed completion: %d vs serial %d", pipeDone, serialDone)
	}
	if pipe.Drain() < pipe.BusyUntil() {
		t.Fatalf("Drain()=%d earlier than BusyUntil()=%d", pipe.Drain(), pipe.BusyUntil())
	}
	if err := pipe.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after pipelined run: %v", err)
	}
	ss := serial.Stats()
	if ss.PipelinedReads != 0 || ss.OverlapCycles != 0 {
		t.Fatalf("serial engine claims pipeline stats: %+v", ss)
	}
}

// touchCase is one (engine, policy) row of the touch-sequence tables.
// hitsOff disables shadow stash hits: under dynamic-N the partition level
// follows the gaps between requests (the DRI signal), so a memory system
// that serves faster or slower can change which requests a shadow serves
// on-chip, and with them which requests reach the tree at all. The claim
// under test is about the accesses that do reach it.
type touchCase struct {
	name    string
	engine  string
	pcfg    *Config
	hitsOff bool
}

// touchCases are the rows the touch-sequence tables run: Tiny and
// dynamic-3 on the Path engine and on Ring, which submits through the same
// memory port. On this schedule ring:dynamic-3 at -c1 serves three more
// requests from on-chip shadows than on the default two-channel DRAM, so
// its row compares with shadow hits off (TestShadowTraceIdenticalToTiny's
// setting).
func touchCases() []touchCase {
	dyn := Dynamic(3)
	return []touchCase{
		{"tiny", oram.PathEngine, nil, false},
		{"dynamic-3", oram.PathEngine, &dyn, false},
		{"ring:tiny", "ring", nil, false},
		{"ring:dynamic-3", "ring", &dyn, true},
	}
}
