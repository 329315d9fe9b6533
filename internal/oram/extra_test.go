package oram

import (
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
)

func TestCensusMatchesInvariantScan(t *testing.T) {
	c := MustNew(testConfig(), nil)
	r := rng.NewXoshiro(41)
	now := int64(0)
	for i := 0; i < 100; i++ {
		out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
		now = out.Done + 1
	}
	cs := c.Census()
	if cs.Reals == 0 {
		t.Fatal("census found no real blocks")
	}
	if cs.Shadows != 0 {
		t.Fatalf("Tiny ORAM tree contains %d shadows", cs.Shadows)
	}
	var sum int
	for _, n := range cs.RealPerLevel {
		sum += n
	}
	if sum != cs.Reals {
		t.Fatalf("per-level sum %d != total %d", sum, cs.Reals)
	}
}

func TestDisableShadowHitsForcesAccesses(t *testing.T) {
	// With hits disabled, a resident shadow must not serve reads.
	cfg := testConfig()
	cfg.DisableShadowHits = true
	c := MustNew(cfg, nil)
	// Plant a shadow by hand through the stash.
	st := c.Stash()
	label := c.pos.Label(5)
	st.Insert(stashEntryShadow(5, label))
	out := c.Request(0, 5, false)
	if out.StashHit {
		t.Fatal("disabled shadow hit served a request")
	}
	if c.Stats().ORAMAccesses == 0 {
		t.Fatal("no access issued")
	}
}

func TestShadowReadHitServes(t *testing.T) {
	c := MustNew(testConfig(), nil)
	label := c.pos.Label(5)
	c.Stash().Insert(stashEntryShadow(5, label))
	out := c.Request(0, 5, false)
	if !out.StashHit {
		t.Fatal("resident shadow did not serve a read")
	}
	if c.Stats().ShadowStashHits != 1 {
		t.Fatalf("shadow hits = %d", c.Stats().ShadowStashHits)
	}
}

func TestShadowWriteForcesCollection(t *testing.T) {
	// A write that only hits a shadow must collect the tree copy: the
	// shadow alone cannot absorb a write without forking versions.
	cfg := testConfig()
	cfg.Functional = true
	c := MustNew(cfg, nil)

	// Access once so block 9 is somewhere well-defined, then write data.
	out, err := c.WriteBlock(0, 9, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	now := out.Done + 1
	// Push it out of the stash with unrelated traffic.
	for i := uint32(100); i < 130; i++ {
		o := c.Request(now, i, false)
		now = o.Done + 1
	}
	// Plant a shadow of 9 (as HD-Dup would have).
	label := c.pos.Label(9)
	e := stashEntryShadow(9, label)
	e.Data = append([]byte("v1"), make([]byte, 62)...)
	c.Stash().Insert(e)

	out, err = c.WriteBlock(now, 9, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if out.StashHit {
		t.Fatal("write served by a shadow without collecting the real block")
	}
	got, _ := c.ReadBlock(out.Done+1, 9)
	if string(got[:2]) != "v2" {
		t.Fatalf("after shadow-write: %q", got[:2])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainAndBusyUntil(t *testing.T) {
	c := MustNew(testConfig(), nil)
	out := c.Request(0, 3, false)
	if c.Drain() != out.Done || c.BusyUntil() != out.Done {
		t.Fatalf("drain %d busy %d done %d", c.Drain(), c.BusyUntil(), out.Done)
	}
}

func TestDepthAccounting(t *testing.T) {
	c := MustNew(testConfig(), nil)
	r := rng.NewXoshiro(43)
	now := int64(0)
	for i := 0; i < 150; i++ {
		out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
		now = out.Done + 1
	}
	st := c.Stats()
	if st.FwdSamples == 0 {
		t.Fatal("no depth samples")
	}
	if st.SumFwdLevel > st.SumRealLevel {
		t.Fatal("forward level deeper than the real block's level")
	}
	if st.SumFwdCycles > st.SumEndCycles {
		t.Fatal("forward after the end of the path read")
	}
}

// stashEntryShadow builds a shadow entry with a plausible SrcLevel.
func stashEntryShadow(addr, label uint32) (e stash.Entry) {
	e.Meta = block.Meta{Kind: block.Shadow, Addr: addr, Label: label, SrcLevel: 8}
	return e
}
