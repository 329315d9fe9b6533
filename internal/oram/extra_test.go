package oram

import (
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
)

func TestDisableShadowHitsForcesAccesses(t *testing.T) {
	// With hits disabled, a resident shadow must not serve reads.
	cfg := testConfig()
	cfg.DisableShadowHits = true
	c := MustNew(cfg, nil)
	// Plant a shadow by hand through the stash.
	st := c.Stash()
	label := c.sh.Label(5)
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
	label := c.sh.Label(5)
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
	label := c.sh.Label(9)
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
	if c.Drain() != out.Done || c.sh.busy != out.Done {
		t.Fatalf("drain %d busy %d done %d", c.Drain(), c.sh.busy, out.Done)
	}
	// Pipelined, a writeback may still drain after the read datapath
	// frees. End the sequence with one in flight: Drain must wait for it,
	// and by then the DRAM model holds no reserved work.
	cfg := testConfig()
	cfg.Pipeline = true
	pipe := MustNew(cfg, nil)
	r := rng.NewXoshiro(5)
	now := int64(0)
	for i := 0; i < 50 || pipe.drain <= pipe.sh.busy; i++ {
		if i == 1000 {
			t.Fatal("no request left a write-back draining past the read datapath")
		}
		now = pipe.Request(now, uint32(r.Uint64n(uint64(pipe.NumDataBlocks()))), i%3 == 0).Forward
	}
	if d := pipe.Drain(); d <= pipe.sh.busy || pipe.mem.Backlog(d) != 0 {
		t.Fatalf("Drain()=%d with the read datapath free at %d and a DRAM backlog of %d there",
			d, pipe.sh.busy, pipe.mem.Backlog(d))
	}
}

// stashEntryShadow builds a shadow entry with a plausible SrcLevel.
func stashEntryShadow(addr, label uint32) (e stash.Entry) {
	e.Meta = block.Meta{Kind: block.Shadow, Addr: addr, Label: label, SrcLevel: 8}
	return e
}
