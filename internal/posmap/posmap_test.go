package posmap

import (
	"testing"
	"testing/quick"

	"shadowblock/internal/rng"
)

func TestHierarchyShape(t *testing.T) {
	// 2^20 data blocks, fanout 16, 4096 on-chip: levels 2^20 -> 2^16 -> 2^12.
	h, err := NewHierarchy(1<<20, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 3 {
		t.Fatalf("levels = %d, want 3 (two in the tree)", h.Levels())
	}
	if h.counts[0] != 1<<20 {
		t.Fatalf("data blocks = %d", h.counts[0])
	}
	want := 1<<20 + 1<<16 + 1<<12
	if h.TotalBlocks() != want {
		t.Fatalf("TotalBlocks = %d, want %d", h.TotalBlocks(), want)
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(0, 16, 64); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewHierarchy(100, 1, 64); err == nil {
		t.Error("fanout=1 accepted")
	}
	if _, err := NewHierarchy(100, 16, 0); err == nil {
		t.Error("onChip=0 accepted")
	}
}

// direct is the one-level hierarchy an on-chip cap of at least nData
// builds: every label on-chip, no position-map block in the tree.
func direct(nData int) Hierarchy {
	h, err := NewHierarchy(nData, 16, nData)
	if err != nil {
		panic(err)
	}
	return h
}

// TestDirect: a cap of at least the data block count stops the hierarchy
// at the data level, whose labels are all on-chip.
func TestDirect(t *testing.T) {
	for _, onChip := range []int{1000, 1 << 20} {
		h, err := NewHierarchy(1000, 16, onChip)
		if err != nil {
			t.Fatal(err)
		}
		if h.Levels() != 1 || h.TotalBlocks() != 1000 {
			t.Fatalf("cap %d: levels=%d total=%d", onChip, h.Levels(), h.TotalBlocks())
		}
		if _, ok := h.Parent(5); ok {
			t.Fatalf("cap %d: direct map has a parent", onChip)
		}
		chain := h.Chain(5, nil)
		if len(chain) != 1 || chain[0] != 5 {
			t.Fatalf("cap %d: direct chain = %v", onChip, chain)
		}
	}
}

func TestParentAndLevelOf(t *testing.T) {
	h, _ := NewHierarchy(256, 16, 4) // 256 -> 16 -> 1
	if h.Levels() != 3 {
		t.Fatalf("levels = %d", h.Levels())
	}
	if lvl := h.LevelOf(0); lvl != 0 {
		t.Fatalf("LevelOf(0) = %d", lvl)
	}
	if lvl := h.LevelOf(256); lvl != 1 {
		t.Fatalf("LevelOf(256) = %d", lvl)
	}
	if lvl := h.LevelOf(256 + 16); lvl != 2 {
		t.Fatalf("LevelOf(272) = %d", lvl)
	}
	p, ok := h.Parent(17)
	if !ok || p != 256+1 {
		t.Fatalf("Parent(17) = %d,%v want 257", p, ok)
	}
	p, ok = h.Parent(256 + 15)
	if !ok || p != 256+16 {
		t.Fatalf("Parent(271) = %d,%v want 272", p, ok)
	}
	if _, ok := h.Parent(256 + 16); ok {
		t.Fatal("top level has a parent")
	}
}

func TestChain(t *testing.T) {
	h, _ := NewHierarchy(256, 16, 4)
	chain := h.Chain(200, nil)
	if len(chain) != 3 {
		t.Fatalf("chain = %v", chain)
	}
	if chain[0] != 200 || chain[1] != 256+200/16 || chain[2] != 272 {
		t.Fatalf("chain = %v", chain)
	}
}

func TestChainParentConsistency(t *testing.T) {
	h, _ := NewHierarchy(10000, 16, 64)
	f := func(a uint32) bool {
		addr := a % 10000
		chain := h.Chain(addr, nil)
		for i := 0; i+1 < len(chain); i++ {
			p, ok := h.Parent(chain[i])
			if !ok || p != chain[i+1] {
				return false
			}
		}
		// The top of the chain has no parent.
		_, ok := h.Parent(chain[len(chain)-1])
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLabels(t *testing.T) {
	h, _ := NewHierarchy(4096, 16, 64)
	s := NewStore(h, 1<<10, rng.NewXoshiro(1))
	if s.Len() != h.TotalBlocks() {
		t.Fatalf("store len = %d, want %d", s.Len(), h.TotalBlocks())
	}
	for a := uint32(0); a < 4096; a += 97 {
		if s.Label(a) >= 1<<10 {
			t.Fatalf("label out of range: %d", s.Label(a))
		}
	}
	s.SetLabel(7, 42)
	if s.Label(7) != 42 {
		t.Fatalf("SetLabel not visible: %d", s.Label(7))
	}
}

func TestStoreLabelDistribution(t *testing.T) {
	// Sanity: labels roughly cover the leaf range.
	h := direct(1 << 14)
	s := NewStore(h, 1<<8, rng.NewXoshiro(9))
	var buckets [4]int
	for a := 0; a < s.Len(); a++ {
		buckets[s.Label(uint32(a))>>6]++
	}
	for i, b := range buckets {
		if b < s.Len()/8 {
			t.Fatalf("label quadrant %d underpopulated: %d/%d", i, b, s.Len())
		}
	}
}

// TestStoreLabelsAreUint64nDraws pins the bulk fill to the per-label draw
// it replaced: label a is the a-th Uint64n(numLeaves) of the stream.
func TestStoreLabelsAreUint64nDraws(t *testing.T) {
	h, _ := NewHierarchy(1<<12, 16, 64)
	s := NewStore(h, 1<<9, rng.NewXoshiro(4))
	ref := rng.NewXoshiro(4)
	for a := 0; a < s.Len(); a++ {
		if want := uint32(ref.Uint64n(1 << 9)); s.Label(uint32(a)) != want {
			t.Fatalf("label %d = %d, want %d", a, s.Label(uint32(a)), want)
		}
	}
}

func TestStoreRejectsNonPowerOfTwoLeaves(t *testing.T) {
	for _, n := range []uint32{0, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d leaves accepted", n)
				}
			}()
			NewStore(direct(16), n, rng.NewXoshiro(1))
		}()
	}
}
