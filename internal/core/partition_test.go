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
// an unbroken run of short intervals (real after real) empties the counter
// and walks the partition up to L+1 and pins it there; an unbroken run of
// overruns (dummy after real) fills it and walks the partition down to 0.
// The "step-by-step" case pins §IV-D's rule one request at a time.
func TestDynamicPartitionStaysInRange(t *testing.T) {
	const l = 8
	type step struct {
		dummy     bool
		counter   uint32 // after NoteORAMRequest(dummy)
		partition int
	}
	cases := []struct {
		name string
		// pattern is replayed cyclically into NoteORAMRequest.
		pattern []bool // true = dummy
		want    int    // saturated partition level
		// steps, when set, is replayed once instead of pattern, and the
		// counter and partition are checked after every call.
		steps []step
	}{
		// Real->real decrements the counter toward 0; once below the
		// midpoint every request steps the partition up to L+1.
		{name: "all-real", pattern: []bool{false}, want: l + 1},
		// Real->dummy increments the counter toward max; at or above the
		// midpoint every request steps the partition down to 0.
		{name: "real-dummy-alternation", pattern: []bool{false, true}, want: 0},
		// Worked from the rule's text, not by running the code. A 3-bit
		// counter runs 0..7 and starts at 4, its upper half; P starts at
		// (L+1)/2 = 4. Real->real moves the counter down, real->dummy up,
		// and a request after a dummy (or the first one) leaves it. Then P
		// moves one level: up while the counter is below 4, else down.
		{name: "step-by-step", steps: []step{
			{false, 4, 3}, // first request: counter stays 4, P down
			{false, 3, 4}, // real->real: 3, lower half, P up
			{true, 4, 3},  // real->dummy: 4, upper half, P down
			{true, 4, 2},  // dummy->dummy: unchanged, P down
			{false, 4, 1}, // dummy->real: unchanged, P down
			{false, 3, 2}, // real->real: 3, P up
			{false, 2, 3},
			{false, 1, 4},
			{false, 0, 5},
			{false, 0, 6}, // real->real at 0: the counter stays at its floor
			{true, 1, 7},  // real->dummy: 1, still lower half, P up
			{false, 1, 8}, // dummy->real: unchanged, P up
		}},
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
			if tc.steps != nil {
				if p.counter != 4 || p.Partition() != 4 {
					t.Fatalf("fresh policy: counter %d partition %d, want 4 and 4", p.counter, p.Partition())
				}
				for i, s := range tc.steps {
					p.NoteORAMRequest(s.dummy)
					if p.counter != s.counter || p.Partition() != s.partition {
						t.Fatalf("after request %d (dummy=%v): counter %d partition %d, want %d and %d",
							i+1, s.dummy, p.counter, p.Partition(), s.counter, s.partition)
					}
				}
				return
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
