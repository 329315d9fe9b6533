package ring

import (
	"reflect"
	"strings"
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// image is what a mutation needs of an engine: its tree image, its stash,
// and its invariant check. Both engines hand the same pieces to the one
// shared walker (oram.Shared.CheckTree).
type image struct {
	geo   tree.Geometry
	slots []uint64
	valid []bool // nil: every slot is live (Path)
	st    *stash.Stash
	check func() error
}

// unexported returns a pointer to an unexported field, following names from
// *obj: the mutations corrupt state that no API lets a caller reach.
func unexported[T any](obj any, names ...string) *T {
	v := reflect.ValueOf(obj).Elem()
	for _, n := range names {
		if v = v.FieldByName(n); v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
	}
	return (*T)(v.Addr().UnsafePointer())
}

// images builds both engines under Dynamic(3) and drives ~2000 random
// requests through each.
func images(t *testing.T) map[string]image {
	t.Helper()
	pol, err := core.NewUnbound(core.Dynamic(3))
	if err != nil {
		t.Fatal(err)
	}
	path, err := oram.New(testConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	ring := newShadowRing(t, testConfig(), core.Dynamic(3))
	driveEngine(t, path, 2000)
	driveEngine(t, ring, 2000)
	return map[string]image{
		"path": {path.Geometry(), *unexported[[]uint64](path, "store", "slots"), nil, path.Stash(), path.CheckInvariants},
		"ring": {ring.geo, ring.slots, ring.valid, ring.st, ring.CheckInvariants},
	}
}

func (im image) live(i int) bool { return im.valid == nil || im.valid[i] }

// realWithFreeSlot finds a live real block on a tree level in [lo, hi]
// whose bucket also has a live dummy slot, and no entry in the stash.
func (im image) realWithFreeSlot(t *testing.T, lo, hi int) (real, free, level int) {
	t.Helper()
	for b := 0; b < im.geo.NumBuckets(); b++ {
		lv := im.geo.BucketLevel(b)
		if lv < lo || lv > hi {
			continue
		}
		real, free = -1, -1
		for s := 0; s < im.geo.Z; s++ {
			i := im.geo.SlotIndex(b, s)
			switch m := block.Unpack(im.slots[i]); {
			case !im.live(i):
			case m.IsDummy():
				free = i
			case m.Kind == block.Real:
				if _, inStash := im.st.Lookup(m.Addr); !inStash {
					real = i
				}
			}
		}
		if real >= 0 && free >= 0 {
			return real, free, lv
		}
	}
	t.Fatalf("no real block with a free slot beside it on levels %d..%d", lo, hi)
	return
}

// TestWalkerMutations shows the shared walker failing: every structural
// corruption below must be reported, for the right reason, on both
// engines, and the state it was applied to must pass clean.
func TestWalkerMutations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		want   string // substring of the walker's report
		mutate func(t *testing.T, im image)
	}{
		{"clean", "", func(*testing.T, image) {}},
		{"duplicated real block", "more than one real copy", func(t *testing.T, im image) {
			real, free, _ := im.realWithFreeSlot(t, 0, im.geo.L)
			im.slots[free] = im.slots[real]
		}},
		{"block moved off its path", "rule-1", func(t *testing.T, im image) {
			real, _, _ := im.realWithFreeSlot(t, 1, im.geo.L)
			m := block.Unpack(im.slots[real])
			m.Label ^= 1 << uint(im.geo.L-1) // the other half of the tree
			im.slots[real] = m.Pack()
		}},
		{"fresh shadow at its real's level", "rule-2", func(t *testing.T, im image) {
			real, free, lv := im.realWithFreeSlot(t, 0, im.geo.L)
			m := block.Unpack(im.slots[real])
			m.Kind, m.SrcLevel = block.Shadow, uint8(lv)
			im.slots[free] = m.Pack()
		}},
		{"stale shadow in the stash", "labelled", func(t *testing.T, im image) {
			real, _, lv := im.realWithFreeSlot(t, 0, im.geo.L)
			m := block.Unpack(im.slots[real])
			m.Kind, m.SrcLevel, m.Label = block.Shadow, uint8(lv), m.Label^1
			// Top priority: the shadow quota is full of the policy's own.
			if im.st.Insert(stash.Entry{Meta: m, Priority: ^uint64(0)}) != stash.Inserted {
				t.Fatal("the stash refused the planted shadow")
			}
		}},
		{"posmap and slot label desynchronised", "in posmap", func(t *testing.T, im image) {
			real, _, _ := im.realWithFreeSlot(t, 0, im.geo.L-1)
			m := block.Unpack(im.slots[real])
			m.Label ^= 1 // the sibling leaf: same path down to level L-1
			im.slots[real] = m.Pack()
		}},
		{"two stash entries for one address", "two entries", func(t *testing.T, im image) {
			entries := unexported[[]stash.Entry](im.st, "entries")
			if len(*entries) == 0 {
				t.Fatal("stash empty after the drive")
			}
			*entries = append(*entries, (*entries)[0])
		}},
	} {
		for engine, im := range images(t) {
			t.Run(tc.name+"/"+engine, func(t *testing.T) {
				if err := im.check(); err != nil {
					t.Fatalf("before the mutation: %v", err)
				}
				tc.mutate(t, im)
				err := im.check()
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("clean state rejected: %v", err)
				case tc.want != "" && err == nil:
					t.Fatal("mutation not reported")
				case tc.want != "" && !strings.Contains(err.Error(), tc.want):
					t.Fatalf("reported for the wrong reason: %v", err)
				}
			})
		}
	}
}

// TestDisableShadowHitsOnRing: Config.DisableShadowHits reaches Ring
// through the shared request head. The same hot request stream that is
// served from resident shadows with the flag off must serve none with it on.
func TestDisableShadowHitsOnRing(t *testing.T) {
	hits := func(disable bool) uint64 {
		cfg := testConfig()
		cfg.DisableShadowHits = disable
		pol, err := core.NewUnbound(core.HDOnly())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := oram.NewEngine(EngineName, cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, eng.(*Controller), 1500, 9)
		return eng.Stats().ShadowStashHits
	}
	if hits(false) == 0 {
		t.Fatal("the stream never hits a resident shadow; the test shows nothing")
	}
	if n := hits(true); n != 0 {
		t.Fatalf("%d shadow stash hits with DisableShadowHits set", n)
	}
}

// TestInitialPlacementOverflowIsAnError: a tree too small for the address
// space spills into the stash at construction, and a stash that cannot hold
// the spill fails New — as on the Path engine — instead of dropping blocks.
func TestInitialPlacementOverflowIsAnError(t *testing.T) {
	cfg := oram.Default()
	cfg.L = 4              // 64 data blocks
	cfg.StashCapacity = 25 // the smallest the shared Validate admits
	if _, err := New(cfg, Config{Z: 1, S: 2, A: 3}, nil); err == nil {
		t.Fatal("31 real slots and 25 stash entries took 64 blocks without an error")
	} else if !strings.Contains(err.Error(), "overflowed the stash") {
		t.Fatalf("unexpected error: %v", err)
	}
}
