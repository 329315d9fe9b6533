package core

import (
	"strings"
	"testing"

	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// newBound builds a policy and binds it to geo and st, as an engine
// constructor would.
func newBound(pcfg Config, geo tree.Geometry, st *stash.Stash) (*Policy, error) {
	p, err := NewUnbound(pcfg)
	if err != nil {
		return nil, err
	}
	return p, p.BindGeometry(geo, st)
}

// TestDynamicPartitionStaysInRange drives the DRI counter to both
// saturation ends and checks the partition level never leaves [0, L+1]:
// an unbroken run of short intervals (real after real) must walk it down
// to 0 and pin it there; an unbroken run of overruns (dummy after real)
// must walk it up to L+1 and pin it there.
func TestDynamicPartitionStaysInRange(t *testing.T) {
	const l = 8
	cases := []struct {
		name string
		// pattern is replayed cyclically into NoteORAMRequest.
		pattern []bool // true = dummy
		want    int    // saturated partition level
	}{
		// Real->real decrements the counter toward 0; once below the
		// midpoint every request steps the partition up to L+1.
		{"all-real", []bool{false}, l + 1},
		// Real->dummy increments the counter toward max; at or above the
		// midpoint every request steps the partition down to 0.
		{"real-dummy-alternation", []bool{false, true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			geo, err := tree.NewGeometry(l, 5)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newBound(Dynamic(3), geo, stash.New(150))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4*(l+2)*len(tc.pattern); i++ {
				p.NoteORAMRequest(tc.pattern[i%len(tc.pattern)])
				if got := p.Partition(); got < 0 || got > l+1 {
					t.Fatalf("after request %d: partition %d escaped [0,%d]", i, got, l+1)
				}
			}
			if got := p.Partition(); got != tc.want {
				t.Fatalf("saturated partition %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStaticPartitionBindRejectsAboveTree checks that a static partition
// level the tree cannot express fails loudly at bind time instead of being
// clamped: the caller asked for a split that does not exist.
func TestStaticPartitionBindRejectsAboveTree(t *testing.T) {
	geo, err := tree.NewGeometry(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	// L+1 is the top of the valid range: pure HD-Dup.
	p, err := newBound(Static(9), geo, stash.New(150))
	if err != nil {
		t.Fatalf("partition level L+1: %v", err)
	}
	if p.Partition() != 9 {
		t.Fatalf("partition = %d, want 9", p.Partition())
	}
	if _, err := newBound(Static(10), geo, stash.New(150)); err == nil {
		t.Fatal("partition level L+2 must be rejected at bind time")
	}
	// The same rejection must surface through the controller constructor.
	cfg := testORAMConfig()
	if _, _, err := New(cfg, Static(cfg.L+2)); err == nil ||
		!strings.Contains(err.Error(), "partition") {
		t.Fatalf("New with partition above L+1: err = %v, want a partition bind error", err)
	}
}
