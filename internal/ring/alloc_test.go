package ring

import (
	"runtime"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/tree"
)

// TestRingRequestZeroAlloc is the Ring case of the steady-state allocation
// gate internal/oram/alloc_test.go holds the Path engine to: a warmed
// controller serves requests — reads, evictions and early reshuffles
// included — without allocating, with and without a shadow policy. At L=8
// the default recursive position map fits on-chip whole; at L=13 it has an
// in-tree level of 2 048 posmap blocks, twice the PLB, so the measured
// window also walks, fetches and displaces.
func TestRingRequestZeroAlloc(t *testing.T) {
	for _, name := range []string{"plain", "shadow", "walk"} {
		t.Run(name, func(t *testing.T) {
			c := MustNew(testConfig(), Classic, nil)
			switch name {
			case "shadow":
				c = newShadowRing(t, testConfig(), core.Dynamic(3))
			case "walk":
				cfg := testConfig()
				cfg.L, cfg.StashCapacity = 13, oram.Default().StashCapacity
				c = MustNew(cfg, Classic, nil)
			}
			r := rng.NewXoshiro(42)
			n := uint64(c.NumDataBlocks())
			now := int64(0)
			i := 0
			step := func() {
				i++
				out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
				now = out.Done + 10
			}
			for i < 2000 {
				step()
			}
			before := c.Stats()
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("%.1f allocs per steady-state request, want 0", got)
			}
			after := c.Stats()
			if after.Reshuffles == before.Reshuffles {
				t.Error("measured window saw no reshuffle; the gate does not cover it")
			}
			if name == "walk" && (after.PMAccesses == before.PMAccesses || after.PLBWritebacks == before.PLBWritebacks) {
				t.Error("measured window fetched or displaced no posmap block; the gate does not cover the walk")
			}
		})
	}
}

// TestTreeImageFootprint bounds what building each engine allocates at
// L=16: a tree slot costs at most 4 bytes, and its label lives in the
// position map at L bits per unified block, plus 640 KiB for everything
// else (Place's byte per bucket, Ring's reads-left counters and valid
// bits, the stash, the PLB). Labels at 4 bytes each overrun it.
func TestTreeImageFootprint(t *testing.T) {
	cfg := oram.Default()
	cfg.L = 16
	hier, err := posmap.NewHierarchy(cfg.NumDataBlocks(), oram.PosmapFanout, cfg.OnChipPosMapEntries)
	if err != nil {
		t.Fatal(err)
	}
	blocks := hier.TotalBlocks()
	for _, tc := range []struct {
		name  string
		build func() (slots int)
	}{
		{"path", func() int {
			c, err := oram.New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return unexported[tree.Geometry](c, "geo").NumSlots()
		}},
		{"ring", func() int {
			c, err := New(cfg, Classic, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c.geo.NumSlots()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			slots := tc.build()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			limit := uint64(4*slots + (cfg.L*blocks+7)/8 + 640<<10)
			t.Logf("%d slots, %d unified blocks: %d bytes allocated (limit %d)", slots, blocks, got, limit)
			if got > limit {
				t.Errorf("building the engine allocated %d bytes, over the %d-byte bound", got, limit)
			}
		})
	}
}
