package core

import (
	"sync"
	"testing"

	"shadowblock/internal/oram"
)

// TestChannelTouchSequenceUnchanged is the channel mode's security argument
// as an executable check: interleaving the tree across channels moves
// blocks to different physical rows and changes timing, but the sequence of
// externally visible operations — which path, read or write, in what order
// — must be exactly the legacy engine's for every channel count, with and
// without the pipelined engine, on every engine of the seam.
func TestChannelTouchSequenceUnchanged(t *testing.T) {
	for _, pol := range touchCases() {
		for _, pipeline := range []bool{false, true} {
			base := testORAMConfig()
			base.Pipeline = pipeline
			base.DisableShadowHits = pol.hitsOff
			ref := collectTrace(buildEngine(t, pol.engine, base, pol.pcfg), 400, 91)
			for _, channels := range []int{1, 2, 4} {
				cfg := base
				cfg.Channels = channels
				got := collectTrace(buildEngine(t, pol.engine, cfg, pol.pcfg), 400, 91)
				if len(got) != len(ref) {
					t.Fatalf("%s pipeline=%v channels=%d: trace length %d, legacy %d",
						pol.name, pipeline, channels, len(got), len(ref))
				}
				for i := range got {
					if got[i].Kind != ref[i].Kind || got[i].Leaf != ref[i].Leaf {
						t.Fatalf("%s pipeline=%v channels=%d: event %d touches a different location: %+v vs legacy %+v",
							pol.name, pipeline, channels, i, got[i], ref[i])
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
	for _, pipeline := range []bool{false, true} {
		legacyCfg := testORAMConfig()
		legacyCfg.DRAM.Channels = 1
		legacyCfg.Pipeline = pipeline
		chanCfg := legacyCfg
		chanCfg.Channels = 1

		legacy := collectTrace(oram.MustNew(legacyCfg, nil), 400, 91)
		ch1 := collectTrace(oram.MustNew(chanCfg, nil), 400, 91)
		if len(ch1) != len(legacy) {
			t.Fatalf("pipeline=%v: trace length %d, legacy %d", pipeline, len(ch1), len(legacy))
		}
		for i := range ch1 {
			if ch1[i] != legacy[i] {
				t.Fatalf("pipeline=%v: event %d = %+v, legacy %+v (start cycles must match too)",
					pipeline, i, ch1[i], legacy[i])
			}
		}

		lf, ld, ldr := driveGolden(oram.MustNew(legacyCfg, nil))
		cf, cd, cdr := driveGolden(oram.MustNew(chanCfg, nil))
		if cf != lf || cd != ld || cdr != ldr {
			t.Fatalf("pipeline=%v: channels=1 timing %d/%d/%d, legacy %d/%d/%d",
				pipeline, cf, cd, cdr, lf, ld, ldr)
		}
	}
}

// TestChannelFourFasterThanOne is the acceptance check for the interleaved
// layout: with four channels a path's rows drain four buses in parallel, so
// both the forward latencies and the total drain must beat the one-channel
// pipelined engine on the same request schedule.
func TestChannelFourFasterThanOne(t *testing.T) {
	run := func(channels int) (int64, int64, int64) {
		cfg := testORAMConfig()
		cfg.Pipeline = true
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
		for _, pipeline := range []bool{false, true} {
			wg.Add(1)
			go func(channels int, pipeline bool) {
				defer wg.Done()
				cfg := testORAMConfig()
				cfg.Channels = channels
				cfg.Pipeline = pipeline
				ctrl, _, err := New(cfg, Dynamic(3))
				if err != nil {
					t.Error(err)
					return
				}
				driveGolden(ctrl)
			}(channels, pipeline)
		}
	}
	wg.Wait()
}
