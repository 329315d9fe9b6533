package cache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(32*1024, 64, 2); err != nil {
		t.Fatalf("L1 geometry rejected: %v", err)
	}
	bad := [][3]int{
		{0, 64, 2},
		{1024, 0, 2},
		{1024, 64, 0},
		{1024, 63, 2},    // line not power of two
		{96 * 64, 64, 2}, // 48 sets, not power of two
	}
	for _, b := range bad {
		if _, err := New(b[0], b[1], b[2]); err == nil {
			t.Errorf("New(%v) accepted", b)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustNew(1024, 64, 2)
	if hit, _, _, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _, _ := c.Access(32, false); !hit {
		t.Fatal("same-line access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 1 set: 128 bytes, 64B lines.
	c := MustNew(128, 64, 2)
	c.Access(0, false)    // A
	c.Access(64*2, false) // B (same set: only one set exists)
	c.Access(0, false)    // touch A -> B is LRU
	hit, victim, _, evicted := c.Access(64*4, false)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !evicted || victim != 64*2 {
		t.Fatalf("evicted=%v victim=%d, want B=%d", evicted, victim, 64*2)
	}
	if !c.Contains(0) || c.Contains(64*2) {
		t.Fatal("LRU evicted the wrong line")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := MustNew(128, 64, 2)
	c.Access(0, true) // dirty A
	c.Access(64*2, false)
	_, victim, dirty, evicted := c.Access(64*4, false)
	if !evicted || victim != 0 || !dirty {
		t.Fatalf("evicted=%v victim=%d dirty=%v; want dirty A", evicted, victim, dirty)
	}
}

// Property: resident set never exceeds capacity, and an immediately repeated
// access always hits.
func TestCacheProperties(t *testing.T) {
	c := MustNew(4096, 64, 4)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
			if hit, _, _, _ := c.Access(uint64(a), false); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHotAddrCounts(t *testing.T) {
	h := NewHotAddrCache(128, 4)
	for i := 0; i < 5; i++ {
		h.Touch(42)
	}
	h.Touch(7)
	if got := h.Count(42); got != 5 {
		t.Fatalf("Count(42) = %d, want 5", got)
	}
	// A single touch stays in the doorkeeper, not the counters.
	if got := h.Count(7); got != 0 {
		t.Fatalf("Count(first-touch) = %d, want 0", got)
	}
	h.Touch(7)
	if got := h.Count(7); got != 2 {
		t.Fatalf("Count(second-touch) = %d, want 2", got)
	}
	if got := h.Count(999); got != 0 {
		t.Fatalf("Count(absent) = %d, want 0", got)
	}
}

func TestHotAddrDoorkeeperBlocksOneTouchChurn(t *testing.T) {
	// One set with 2 ways: two hot entries must survive a stream of
	// one-touch addresses that map to the same set.
	h := NewHotAddrCache(2, 2)
	for i := 0; i < 10; i++ {
		h.Touch(0)
		h.Touch(4)
	}
	for a := uint32(8); a < 8+400; a += 4 {
		h.Touch(a) // never repeated
	}
	if h.Count(0) != 10 || h.Count(4) != 10 {
		t.Fatalf("hot entries churned out: %d, %d", h.Count(0), h.Count(4))
	}
}

func TestHotAddrSecondTouchEvictsLFU(t *testing.T) {
	h := NewHotAddrCache(2, 2)
	for i := 0; i < 10; i++ {
		h.Touch(0)
	}
	h.Touch(4)
	h.Touch(4) // admitted, takes the free way
	h.Touch(8)
	h.Touch(8) // admitted, evicts the LFU (4), not the hot entry
	if h.Count(0) != 10 {
		t.Fatalf("hot entry evicted; Count(0)=%d", h.Count(0))
	}
	if h.Count(4) != 0 {
		t.Fatal("LFU entry survived")
	}
	if h.Count(8) != 2 {
		t.Fatalf("Count(8) = %d, want 2", h.Count(8))
	}
}

func TestHotAddrBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewHotAddrCache(3, 2)
}

func BenchmarkCacheAccess(b *testing.B) {
	c := MustNew(1<<20, 64, 8)
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64%(1<<22)), false)
	}
}

func TestHotAddrDoorkeeperWrapEvicts(t *testing.T) {
	h := NewHotAddrCache(128, 4)
	ring := len(h.doorRing)

	h.Touch(5) // first touch: doorkeeper only
	// A full ring of distinct first touches reclaims 5's slot...
	for i := 0; i < ring; i++ {
		h.Touch(uint32(1_000_000 + i))
	}
	if _, ok := h.door[5]; ok {
		t.Fatal("wrapped-over address still in the door map")
	}
	// ...so the next touch of 5 is a fresh first sighting, not an admission.
	h.Touch(5)
	if got := h.Count(5); got != 0 {
		t.Fatalf("single touch after wrap admitted: Count(5) = %d, want 0", got)
	}
	h.Touch(5)
	if got := h.Count(5); got != 2 {
		t.Fatalf("second touch within the window must admit: Count(5) = %d, want 2", got)
	}
	// The map never outgrows the ring, however long the one-touch stream.
	for i := 0; i < 3*ring; i++ {
		h.Touch(uint32(2_000_000 + i))
	}
	if len(h.door) > ring {
		t.Fatalf("door map grew past the ring: %d entries for %d slots", len(h.door), ring)
	}
}

func TestHotAddrDoorkeeperWrapSurvivesStaleSlots(t *testing.T) {
	// Regression: the ring used to store addr+1 with 0 as the empty
	// sentinel, so MaxUint32 wrapped to the sentinel and its door entry
	// survived the ring forever, admitting it on any later single touch.
	h := NewHotAddrCache(128, 4)
	const hot = ^uint32(0)
	h.Touch(hot)
	for i := 0; i < len(h.doorRing); i++ {
		h.Touch(uint32(1_000_000 + i))
	}
	if _, ok := h.door[hot]; ok {
		t.Fatal("MaxUint32 door entry survived a full ring wrap")
	}
	h.Touch(hot)
	if got := h.Count(hot); got != 0 {
		t.Fatalf("stale door entry admitted MaxUint32 on one touch: Count = %d", got)
	}

	// A manufactured stale slot — the ring cell points at an address whose
	// live entry lives elsewhere — must not evict the live entry on wrap.
	h2 := NewHotAddrCache(128, 4)
	h2.Touch(9) // live entry in slot 0
	h2.doorRing[1] = 9
	h2.doorUsed[1] = true // stale duplicate: door[9] still points at slot 0
	h2.doorPos = 1
	h2.Touch(77) // reclaims slot 1; must leave door[9] alone
	if _, ok := h2.door[9]; !ok {
		t.Fatal("stale ring slot evicted the live door entry")
	}
	h2.Touch(9)
	if got := h2.Count(9); got != 2 {
		t.Fatalf("live entry lost its admission window: Count(9) = %d, want 2", got)
	}
}
