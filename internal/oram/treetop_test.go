package oram_test

import (
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
)

// treetopPin is what TestTreetopPinned holds fixed for one cell.
type treetopPin struct {
	cycles        int64 // Drain: completion of all issued work
	reads, writes uint64
	onChipHits    uint64
}

// TestTreetopPinned pins Path's treetop cache exactly: dynamic-3 with three
// on-chip levels and with every level on-chip (L+1, so no path read or
// write reaches DRAM at all), serial and -pipe-c2-wbd, behind a one-core
// queue with random gaps and a third of the requests writes. Under -wbd the
// write-back walker runs every 50 requests and after Drain: no bucket of an
// on-chip level ever has a queued DRAM write.
func TestTreetopPinned(t *testing.T) {
	const l = 8
	for _, tc := range []struct {
		name    string
		treetop int
		axes    bool // -pipe-c2-wbd
		want    treetopPin
	}{
		{"dynamic-3-tt3", 3, false, treetopPin{839641, 51180, 8520, 110}},
		{"dynamic-3-tt3-pipe-c2-wbd", 3, true, treetopPin{660323, 51240, 8520, 105}},
		{"dynamic-3-ttall", l + 1, false, treetopPin{229292, 0, 0, 1500}},
		{"dynamic-3-ttall-pipe-c2-wbd", l + 1, true, treetopPin{229292, 0, 0, 1500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := oram.Default()
			cfg.L = l
			cfg.StashCapacity = 120
			cfg.TreetopLevels = tc.treetop
			if tc.axes {
				cfg.Pipeline, cfg.Channels, cfg.WBDecoupled = true, 2, true
			}
			pol, err := core.NewUnbound(core.Dynamic(3))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := oram.NewEngine(oram.PathEngine, cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			c := eng.(*oram.Controller)
			q := oram.NewQueue(eng, 1)
			r := rng.NewXoshiro(41)
			space := uint64(eng.NumDataBlocks())
			var now int64
			for i := 0; i < 1500; i++ {
				fwd, _ := q.Issue(now, 0, uint32(r.Uint64n(space)), i%3 == 0)
				now = fwd + int64(r.Uint64n(300))
				if i%50 == 0 {
					if err := c.CheckWritebackInvariants(); err != nil {
						t.Fatalf("after request %d: %v", i, err)
					}
				}
			}
			got := treetopPin{cycles: eng.Drain()}
			if err := c.CheckWritebackInvariants(); err != nil {
				t.Fatal(err)
			}
			ms, st := eng.MemStats(), eng.Stats()
			got.reads, got.writes, got.onChipHits = ms.Reads, ms.Writes, st.OnChipHits
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
