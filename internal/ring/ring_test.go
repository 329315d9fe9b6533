package ring

import (
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
)

// testConfig is the shared-axis configuration of the tests' small tree.
func testConfig() oram.Config {
	cfg := oram.Default()
	cfg.L = 8
	cfg.StashCapacity = 120
	return cfg
}

// MustNew is New for the tests' known-good configurations.
func MustNew(cfg oram.Config, shape Config, policy oram.DupPolicy) *Controller {
	c, err := New(cfg, shape, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// newShadowRing wires a shadow-block policy into a Ring controller.
func newShadowRing(t *testing.T, cfg oram.Config, pcfg core.Config) *Controller {
	t.Helper()
	pol, err := core.NewUnbound(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(cfg, Classic, pol)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestValidate(t *testing.T) {
	if err := Classic.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Classic
	bad.Z, bad.S = 10, 10
	if err := bad.Validate(); err == nil {
		t.Fatal("Z+S>16 accepted")
	}
	bad = Classic
	bad.A = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("A=0 accepted")
	}
	// The shared axes are checked by the shared Validate.
	shared := testConfig()
	shared.BlockBytes = 48
	if _, err := New(shared, Classic, nil); err == nil {
		t.Fatal("bad block size accepted")
	}
}

func drive(t *testing.T, c *Controller, n int, seed uint64) {
	t.Helper()
	r := rng.NewXoshiro(seed)
	space := uint64(c.NumDataBlocks())
	now := int64(0)
	for i := 0; i < n; i++ {
		var a uint32
		if i%3 == 0 {
			a = uint32(r.Uint64n(48)) // hot region
		} else {
			a = uint32(r.Uint64n(space))
		}
		out := c.Request(now, a, r.Float64() < 0.25)
		if out.Done < out.Start {
			t.Fatalf("request %d: done %d before start %d", i, out.Done, out.Start)
		}
		now = out.Forward + int64(r.Uint64n(500))
	}
}

func TestPlainRingRuns(t *testing.T) {
	c := MustNew(testConfig(), Classic, nil)
	drive(t, c, 500, 3)
	st := c.Stats()
	if st.Requests != 500 || st.ORAMAccesses == 0 || st.EvictionPhases == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.StashOverflows != 0 || st.Anomalies != 0 {
		t.Fatalf("overflows=%d anomalies=%d", st.StashOverflows, st.Anomalies)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRingReadsOneSlotPerBucket(t *testing.T) {
	c := MustNew(testConfig(), Classic, nil)
	before := c.MemStats().Reads
	out := c.Request(0, 7, false)
	_ = out
	// The first request (no eviction yet at A=3... the read itself) costs
	// L+1 block reads, far below a full-path Z*(L+1).
	delta := c.MemStats().Reads - before
	if delta > uint64(c.geo.L+1+c.geo.PathLen()) {
		t.Fatalf("first request read %d blocks", delta)
	}
	if delta < uint64(c.geo.L+1) {
		t.Fatalf("first request read only %d blocks", delta)
	}
}

func TestShadowRingProducesForwardsAndHits(t *testing.T) {
	c := newShadowRing(t, testConfig(), core.Static(4))
	drive(t, c, 1200, 5)
	st := c.Stats()
	if st.ShadowForwards == 0 && st.ShadowStashHits == 0 {
		t.Fatal("shadow mechanism inactive on Ring ORAM")
	}
	if st.StashOverflows != 0 {
		t.Fatalf("overflows=%d", st.StashOverflows)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReshufflesHappen(t *testing.T) {
	shape := Classic
	shape.S = 2 // tiny dummy budget forces early reshuffles
	shape.A = 6
	c := MustNew(testConfig(), shape, nil)
	drive(t, c, 400, 7)
	if c.Stats().Reshuffles == 0 {
		t.Fatal("no early reshuffles despite S=2")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingProtectionDummies(t *testing.T) {
	cfg := testConfig()
	cfg.TimingProtection = true
	cfg.RequestRate = 500
	c := MustNew(cfg, Classic, nil)
	out := c.Request(0, 3, false)
	c.Request(out.Done+20*500, 9, false)
	if c.Stats().DummyAccesses == 0 {
		t.Fatal("no dummy reads during the idle gap")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleShadowsNeverServe(t *testing.T) {
	c := newShadowRing(t, testConfig(), core.HDOnly())
	drive(t, c, 1500, 9)
	// Functional-equivalent check: every shadow resident in the tree that is
	// tagged stale is never chosen for its address.
	stale := 0
	for b := 0; b < c.geo.NumBuckets(); b++ {
		for s := 0; s < c.geo.Z; s++ {
			i := c.geo.SlotIndex(b, s)
			if !c.valid.has(i) || !c.slots[i].Stale() {
				continue
			}
			stale++
			if got, sl := c.pickSlot(b, c.slots[i].Addr()); got == s || sl.Stale() && sl.Addr() == c.slots[i].Addr() {
				t.Fatalf("stale shadow of %d selected at bucket %d", c.slots[i].Addr(), b)
			}
		}
	}
	if stale == 0 {
		t.Fatal("no stale shadow left in the tree; the test shows nothing")
	}
}

// TestRingStaleShadowsNeverServe follows the shadows a remap leaves
// behind: after every read that moves its block to a new path, each shadow
// of the block still valid on the old path must be tagged stale (unless its
// bucket is on the new path too, where the eviction that may follow the
// read can place a fresh one), must never be picked for its own block, and
// when its bucket is collected must be counted in StaleShadows and kept out
// of the stash.
func TestRingStaleShadowsNeverServe(t *testing.T) {
	c := newShadowRing(t, testConfig(), core.HDOnly())
	r := rng.NewXoshiro(9)
	type left struct {
		b, s int
		addr uint32
	}
	var behind []left
	now := int64(0)
	for n := 0; n < 3000; n++ {
		addr := uint32(r.Uint64n(48)) // hot: shadows of it accumulate
		old := c.sh.Label(addr)
		path := c.geo.Path(old, make([]int, c.geo.Levels()))
		now = c.Request(now, addr, false).Done + 1
		label := c.sh.Label(addr)
		if label == old {
			continue
		}
		for lv, b := range path {
			for s := 0; s < c.geo.Z; s++ {
				i := c.geo.SlotIndex(b, s)
				sl := c.slots[i]
				switch {
				case !c.valid.has(i) || sl.Kind() != block.Shadow || sl.Addr() != addr:
				case sl.Stale():
					behind = append(behind, left{b, s, addr})
				case c.geo.BucketAt(label, lv) != b:
					t.Fatalf("request %d: shadow of %d left on its old path at bucket %d is not tagged stale", n, addr, b)
				}
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	collected := false
	for _, l := range behind {
		i := c.geo.SlotIndex(l.b, l.s)
		if !c.valid.has(i) || !c.slots[i].Stale() || c.slots[i].Addr() != l.addr {
			continue // rewritten since
		}
		if got, _ := c.pickSlot(l.b, l.addr); got == l.s {
			t.Fatalf("stale shadow of %d picked for its own block at bucket %d", l.addr, l.b)
		}
		// Collect one bucket whose only copies of the block are stale, with
		// no stash entry for it: nothing of the block may reach the stash.
		stale, other := 0, 0
		for s := 0; s < c.geo.Z; s++ {
			j := c.geo.SlotIndex(l.b, s)
			switch sl := c.slots[j]; {
			case !c.valid.has(j):
			case sl.Stale():
				stale++
			case sl.Kind() != block.Dummy && sl.Addr() == l.addr:
				other++
			}
		}
		if _, had := c.st.Lookup(l.addr); collected || had || other > 0 {
			continue
		}
		before := c.stats.StaleShadows
		c.collectBucket(l.b)
		if got := c.stats.StaleShadows - before; got != uint64(stale) {
			t.Fatalf("collecting bucket %d counted %d stale shadows, want %d", l.b, got, stale)
		}
		if _, ok := c.st.Lookup(l.addr); ok {
			t.Fatalf("collecting a stale shadow of %d put the block in the stash", l.addr)
		}
		collected = true
	}
	if !collected {
		t.Fatalf("none of the %d shadows left behind could be collected alone; the test shows nothing", len(behind))
	}
}

func TestRingCheaperThanTinyPerRequest(t *testing.T) {
	// Ring ORAM's selling point: far fewer blocks moved per request.
	c := MustNew(testConfig(), Classic, nil)
	drive(t, c, 300, 11)
	st := c.MemStats()
	perReq := float64(st.Reads+st.Writes) / 300
	full := float64(c.geo.PathLen())
	if perReq >= full {
		t.Fatalf("ring moved %.1f blocks/request, not below a full path %f", perReq, full)
	}
}

func BenchmarkRingRequest(b *testing.B) {
	c := MustNew(testConfig(), Classic, nil)
	r := rng.NewXoshiro(13)
	space := uint64(c.NumDataBlocks())
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(space)), false)
		now = out.Done + 1
	}
}
