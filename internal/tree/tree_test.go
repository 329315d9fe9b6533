package tree

import (
	"testing"
	"testing/quick"
)

func mustGeo(t *testing.T, l, z int) Geometry {
	t.Helper()
	g, err := NewGeometry(l, z)
	if err != nil {
		t.Fatalf("NewGeometry(%d,%d): %v", l, z, err)
	}
	return g
}

func TestNewGeometryValidation(t *testing.T) {
	cases := []struct {
		l, z int
		ok   bool
	}{
		{1, 1, true},
		{30, 16, true},
		{0, 4, false},
		{31, 4, false},
		{4, 0, false},
		{4, 17, false},
	}
	for _, c := range cases {
		_, err := NewGeometry(c.l, c.z)
		if (err == nil) != c.ok {
			t.Errorf("NewGeometry(%d,%d) err=%v, want ok=%v", c.l, c.z, err, c.ok)
		}
	}
}

func TestCounts(t *testing.T) {
	g := mustGeo(t, 3, 5)
	if got := g.Levels(); got != 4 {
		t.Errorf("Levels = %d, want 4", got)
	}
	if got := g.NumLeaves(); got != 8 {
		t.Errorf("NumLeaves = %d, want 8", got)
	}
	if got := g.NumBuckets(); got != 15 {
		t.Errorf("NumBuckets = %d, want 15", got)
	}
	if got := g.NumSlots(); got != 75 {
		t.Errorf("NumSlots = %d, want 75", got)
	}
	if got := g.PathLen(); got != 20 {
		t.Errorf("PathLen = %d, want 20", got)
	}
}

func TestBucketAt(t *testing.T) {
	g := mustGeo(t, 2, 2)
	// L=2: buckets 0 | 1 2 | 3 4 5 6. path-2 = {0, 2, 5}.
	path := g.Path(2, make([]int, g.Levels()))
	want := []int{0, 2, 5}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Path(2) = %v, want %v", path, want)
		}
	}
	if g.BucketAt(0, 0) != 0 {
		t.Errorf("root bucket = %d, want 0", g.BucketAt(0, 0))
	}
	if g.BucketAt(3, 2) != 6 {
		t.Errorf("leaf 3 bucket = %d, want 6", g.BucketAt(3, 2))
	}
}

func TestBucketLevelInverse(t *testing.T) {
	g := mustGeo(t, 6, 4)
	for leaf := uint32(0); leaf < g.NumLeaves(); leaf++ {
		for lv := 0; lv <= g.L; lv++ {
			b := g.BucketAt(leaf, lv)
			if got := g.BucketLevel(b); got != lv {
				t.Fatalf("BucketLevel(BucketAt(%d,%d)=%d) = %d", leaf, lv, b, got)
			}
		}
	}
}

func TestIntersectLevel(t *testing.T) {
	g := mustGeo(t, 3, 2)
	cases := []struct {
		a, b uint32
		want int
	}{
		{0, 0, 3},
		{0, 7, 0}, // 000 vs 111: diverge at the root's children
		{0, 1, 2}, // 000 vs 001
		{2, 3, 2}, // 010 vs 011
		{4, 7, 1}, // 100 vs 111
		{5, 4, 2}, // symmetric
	}
	for _, c := range cases {
		if got := g.IntersectLevel(c.a, c.b); got != c.want {
			t.Errorf("IntersectLevel(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectLevelProperties(t *testing.T) {
	g := mustGeo(t, 12, 4)
	mask := g.NumLeaves() - 1
	f := func(a, b uint32) bool {
		a &= mask
		b &= mask
		il := g.IntersectLevel(a, b)
		if il != g.IntersectLevel(b, a) {
			return false // symmetric
		}
		if il < 0 || il > g.L {
			return false
		}
		// Buckets on the two paths must agree up to il and differ after.
		for lv := 0; lv <= g.L; lv++ {
			same := g.BucketAt(a, lv) == g.BucketAt(b, lv)
			if same != (lv <= il) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverseLexLeaf(t *testing.T) {
	g := mustGeo(t, 3, 2)
	// Reverse-lex order for 3 bits: 000,100,010,110,001,101,011,111.
	want := []uint32{0, 4, 2, 6, 1, 5, 3, 7}
	for i, w := range want {
		if got := g.ReverseLexLeaf(uint64(i)); got != w {
			t.Errorf("ReverseLexLeaf(%d) = %d, want %d", i, got, w)
		}
	}
	// Wraps around.
	if g.ReverseLexLeaf(8) != 0 {
		t.Errorf("ReverseLexLeaf(8) = %d, want 0", g.ReverseLexLeaf(8))
	}
}

func TestReverseLexCoversAllLeaves(t *testing.T) {
	g := mustGeo(t, 8, 4)
	seen := make(map[uint32]bool)
	for i := uint64(0); i < uint64(g.NumLeaves()); i++ {
		seen[g.ReverseLexLeaf(i)] = true
	}
	if len(seen) != int(g.NumLeaves()) {
		t.Fatalf("reverse-lex order visited %d/%d leaves", len(seen), g.NumLeaves())
	}
}

func TestReverseLexConsecutiveDisjoint(t *testing.T) {
	// Consecutive reverse-lex paths share only the root (for counts that
	// differ in the lowest bit the reversed labels differ in the top bit).
	g := mustGeo(t, 8, 4)
	for i := uint64(0); i < 64; i++ {
		a := g.ReverseLexLeaf(2 * i)
		b := g.ReverseLexLeaf(2*i + 1)
		if g.IntersectLevel(a, b) != 0 {
			t.Fatalf("consecutive paths %d,%d intersect below root", a, b)
		}
	}
}

func TestSlotIndex(t *testing.T) {
	g := mustGeo(t, 2, 3)
	seen := make(map[int]bool)
	for b := 0; b < g.NumBuckets(); b++ {
		for s := 0; s < g.Z; s++ {
			idx := g.SlotIndex(b, s)
			if idx < 0 || idx >= g.NumSlots() {
				t.Fatalf("SlotIndex(%d,%d) = %d out of range", b, s, idx)
			}
			if seen[idx] {
				t.Fatalf("SlotIndex(%d,%d) = %d collides", b, s, idx)
			}
			seen[idx] = true
		}
	}
}

func TestLayoutAddressesUniqueAndAligned(t *testing.T) {
	g := mustGeo(t, 8, 5)
	ly := NewLayout(g, 64, 8192)
	if ly.SubtreeHeight < 2 {
		t.Fatalf("SubtreeHeight = %d, want >= 2 for an 8 KB row", ly.SubtreeHeight)
	}
	seen := make(map[uint64]bool)
	for b := 0; b < g.NumBuckets(); b++ {
		a := ly.BucketAddr(b)
		if a%uint64(64) != 0 {
			t.Fatalf("BucketAddr(%d) = %d not block-aligned", b, a)
		}
		if seen[a] {
			t.Fatalf("BucketAddr(%d) = %d collides", b, a)
		}
		seen[a] = true
	}
}

func TestLayoutSubtreeFitsInRow(t *testing.T) {
	g := mustGeo(t, 10, 5)
	const row = 8192
	ly := NewLayout(g, 64, row)
	// Walking a path must stay within one row for each SubtreeHeight-level
	// band: the addresses of consecutive buckets on the path within one band
	// share a row.
	path := g.Path(777&(g.NumLeaves()-1), make([]int, g.Levels()))
	for lv := 0; lv+1 <= g.L; lv++ {
		if lv/ly.SubtreeHeight == (lv+1)/ly.SubtreeHeight {
			a := ly.BucketAddr(path[lv]) / row
			b := ly.BucketAddr(path[lv+1]) / row
			if a != b {
				t.Fatalf("levels %d,%d of one path land in different rows (%d,%d)", lv, lv+1, a, b)
			}
		}
	}
}

func TestLayoutSlotAddr(t *testing.T) {
	g := mustGeo(t, 4, 3)
	ly := NewLayout(g, 64, 8192)
	for b := 0; b < g.NumBuckets(); b++ {
		base := ly.BucketAddr(b)
		for s := 0; s < g.Z; s++ {
			if got := ly.SlotAddr(b, s); got != base+uint64(s*64) {
				t.Fatalf("SlotAddr(%d,%d) = %d, want %d", b, s, got, base+uint64(s*64))
			}
		}
	}
}

// TestAppendSlotAddrsMatchesSlotAddr pins the per-bucket staging the
// engines use to SlotAddr, on the plain and the channel layouts.
func TestAppendSlotAddrsMatchesSlotAddr(t *testing.T) {
	g := mustGeo(t, 7, 5)
	plain := NewLayout(g, 64, 8192)
	chans, err := NewChannelLayout(g, 64, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ly := range []Layout{plain, chans} {
		dst := []uint64{42}
		for b := 0; b < g.NumBuckets(); b++ {
			dst = ly.AppendSlotAddrs(dst[:1], b)
			if len(dst) != 1+g.Z || dst[0] != 42 {
				t.Fatalf("bucket %d: appended %d addresses over a prefix %v", b, len(dst)-1, dst[:1])
			}
			for s := 0; s < g.Z; s++ {
				if got, want := dst[1+s], ly.SlotAddr(b, s); got != want {
					t.Fatalf("channels=%d bucket %d slot %d: %d, want %d", ly.Channels, b, s, got, want)
				}
			}
		}
	}
}

func BenchmarkPath(b *testing.B) {
	g, _ := NewGeometry(24, 5)
	buf := make([]int, g.Levels())
	for i := 0; i < b.N; i++ {
		g.Path(uint32(i)&(g.NumLeaves()-1), buf)
	}
}

func BenchmarkIntersectLevel(b *testing.B) {
	g, _ := NewGeometry(24, 5)
	mask := g.NumLeaves() - 1
	for i := 0; i < b.N; i++ {
		g.IntersectLevel(uint32(i)&mask, uint32(i*2654435761)&mask)
	}
}
