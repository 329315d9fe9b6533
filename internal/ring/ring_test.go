package ring

import (
	"slices"
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

// TestBucketReshufflesAfterSReads drives reads along one path through a
// bucket holding Z real blocks and one holding none: each must reshuffle on
// exactly its S-th read since its last write, whatever it holds. The full
// bucket's first Z reads take its reals, so real picks must count too.
func TestBucketReshufflesAfterSReads(t *testing.T) {
	c := MustNew(testConfig(), Classic, nil)
	reals := func(b int) []uint32 {
		var addrs []uint32
		for s := 0; s < c.geo.Z; s++ {
			if i := c.geo.SlotIndex(b, s); c.valid.has(i) && c.slots[i].Kind() == block.Real {
				addrs = append(addrs, c.slots[i].Addr())
			}
		}
		return addrs
	}
	// A leaf bucket holding Z reals whose path crosses a bucket holding none.
	full, empty := -1, -1
	var leaf uint32
	for l := uint32(0); l < c.geo.NumLeaves() && empty < 0; l++ {
		leaf = l
		path := c.geo.Path(leaf, make([]int, c.geo.Levels()))
		if full = path[c.geo.L]; len(reals(full)) != Classic.Z {
			continue
		}
		for _, b := range path {
			if len(reals(b)) == 0 {
				empty = b
				break
			}
		}
	}
	if empty < 0 {
		t.Fatal("no path has a full leaf bucket and an empty bucket; the test shows nothing")
	}

	reshuffled := map[int][]int{} // bucket -> the reads it reshuffled after
	n := 0
	c.SetObserver(func(e oram.Event) {
		if e.Kind == oram.EvBucketRead {
			reshuffled[int(e.Leaf)] = append(reshuffled[int(e.Leaf)], n)
		}
	})
	// The full bucket's reals first, each a real pick there, then dummy
	// reads: 2S reads in all, so each bucket reshuffles twice.
	for _, addr := range reals(full) {
		n++
		c.read(0, leaf, addr, false)
	}
	for n < 2*Classic.S {
		n++
		c.read(0, leaf, oram.NoAddr, false)
	}
	want := []int{Classic.S, 2 * Classic.S}
	for _, b := range []int{full, empty} {
		if !slices.Equal(reshuffled[b], want) {
			t.Errorf("bucket %d (level %d) reshuffled after reads %v, want %v", b, c.geo.BucketLevel(b), reshuffled[b], want)
		}
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
