package core

import (
	"sync"
	"testing"

	"shadowblock/internal/oram"
	_ "shadowblock/internal/ring" // register the "ring" engine
	"shadowblock/internal/rng"
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

// driveGolden runs a fixed request schedule: 500 requests at data-dependent
// arrival times, 30% writes (the engine driver of the experiments cycle
// pins runs the same one).
func driveGolden(ctrl *oram.Controller) (sumFwd, sumDone, drain int64) {
	r := rng.NewXoshiro(123)
	space := uint64(ctrl.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 500; i++ {
		out := ctrl.Request(now, uint32(r.Uint64n(space)), r.Float64() < 0.3)
		sumFwd += out.Forward
		sumDone += out.Done
		now = out.Forward + int64(r.Uint64n(400))
	}
	return sumFwd, sumDone, ctrl.Drain()
}

// TestChannelTouchSequenceUnchanged is the memory port's security argument
// as an executable check: interleaving the tree across channels moves
// blocks to different physical rows, and the decoupled scheduler defers
// write-back reservations, but the sequence of externally visible
// operations — which path, read or write, in what order — must be exactly
// the serial legacy engine's for every channel count, with and without the
// decoupled scheduler, on every engine of the seam.
func TestChannelTouchSequenceUnchanged(t *testing.T) {
	for _, pol := range touchCases() {
		base := testORAMConfig()
		base.DisableShadowHits = pol.hitsOff
		ref := collectTrace(buildEngine(t, pol.engine, base, pol.pcfg), 400, 91)
		for _, wbd := range []bool{false, true} {
			for _, channels := range []int{0, 1, 2, 4} {
				if !wbd && channels == 0 {
					continue // the reference itself
				}
				cfg := base
				cfg.WBDecoupled = wbd
				cfg.Channels = channels
				got := collectTrace(buildEngine(t, pol.engine, cfg, pol.pcfg), 400, 91)
				if len(got) != len(ref) {
					t.Fatalf("%s wbd=%v channels=%d: trace length %d, serial %d",
						pol.name, wbd, channels, len(got), len(ref))
				}
				for i := range got {
					if got[i].Kind != ref[i].Kind || got[i].Leaf != ref[i].Leaf {
						t.Fatalf("%s wbd=%v channels=%d: event %d touches a different location: %+v vs serial %+v",
							pol.name, wbd, channels, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestChannelOneBitIdenticalToLegacy pins Channels=1 to the legacy engine
// cycle for cycle: on a single-channel DRAM configuration the interleaved
// layout produces byte-identical addresses, so every start, forward and
// completion cycle — not just the touch sequence — must match exactly.
func TestChannelOneBitIdenticalToLegacy(t *testing.T) {
	for _, wbd := range []bool{false, true} {
		legacyCfg := testORAMConfig()
		legacyCfg.DRAM.Channels = 1
		legacyCfg.WBDecoupled = wbd
		chanCfg := legacyCfg
		chanCfg.Channels = 1

		legacy := collectTrace(oram.MustNew(legacyCfg, nil), 400, 91)
		ch1 := collectTrace(oram.MustNew(chanCfg, nil), 400, 91)
		if len(ch1) != len(legacy) {
			t.Fatalf("wbd=%v: trace length %d, legacy %d", wbd, len(ch1), len(legacy))
		}
		for i := range ch1 {
			if ch1[i] != legacy[i] {
				t.Fatalf("wbd=%v: event %d = %+v, legacy %+v (start cycles must match too)",
					wbd, i, ch1[i], legacy[i])
			}
		}

		lf, ld, ldr := driveGolden(oram.MustNew(legacyCfg, nil))
		cf, cd, cdr := driveGolden(oram.MustNew(chanCfg, nil))
		if cf != lf || cd != ld || cdr != ldr {
			t.Fatalf("wbd=%v: channels=1 timing %d/%d/%d, legacy %d/%d/%d",
				wbd, cf, cd, cdr, lf, ld, ldr)
		}
	}
}

// TestChannelFourFasterThanOne is the acceptance check for the interleaved
// layout: with four channels a path's rows drain four buses in parallel, so
// both the forward latencies and the total drain must beat the one-channel
// serial engine on the same request schedule.
func TestChannelFourFasterThanOne(t *testing.T) {
	run := func(channels int) (int64, int64, int64) {
		cfg := testORAMConfig()
		cfg.Channels = channels
		ctrl, _, err := New(cfg, Dynamic(3))
		if err != nil {
			t.Fatal(err)
		}
		return driveGolden(ctrl)
	}
	f1, d1, _ := run(1)
	f4, d4, _ := run(4)
	if f4 >= f1 {
		t.Fatalf("channels=4 sumFwd %d not below channels=1 %d", f4, f1)
	}
	if d4 >= d1 {
		t.Fatalf("channels=4 sumDone %d not below channels=1 %d", d4, d1)
	}
}

// TestChannelEnginesConcurrently exercises the multi-channel reservation
// paths from several goroutines (one controller each — controllers are
// single-threaded by design) so `go test -race` covers the new code.
func TestChannelEnginesConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for _, channels := range []int{1, 2, 4} {
		for _, wbd := range []bool{false, true} {
			wg.Add(1)
			go func(channels int, wbd bool) {
				defer wg.Done()
				cfg := testORAMConfig()
				cfg.Channels = channels
				cfg.WBDecoupled = wbd
				ctrl, _, err := New(cfg, Dynamic(3))
				if err != nil {
					t.Error(err)
					return
				}
				driveGolden(ctrl)
			}(channels, wbd)
		}
	}
	wg.Wait()
}
