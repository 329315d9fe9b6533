package oram

import (
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// dupTestPolicy is a small duplication policy for the engine's own tests:
// a free slot takes a shadow of a real placed deeper earlier in the same
// write, else of a stash shadow whose real lies deeper on the slot's path,
// each address at most once per write. Its stash shadows are what makes a
// path write open a shadow an eviction kept sealed.
type dupTestPolicy struct {
	geo   tree.Geometry
	st    *stash.Stash
	reals []placedReal
	used  map[uint32]bool
}

type placedReal struct {
	m  block.Meta
	lv int
}

func (p *dupTestPolicy) BindGeometry(geo tree.Geometry, st *stash.Stash) error {
	p.geo, p.st, p.used = geo, st, map[uint32]bool{}
	return nil
}

func (p *dupTestPolicy) BeginPathWrite(uint32) {
	p.reals = p.reals[:0]
	clear(p.used)
}

func (p *dupTestPolicy) NoteEvict(m block.Meta, lv int) {
	if m.Kind == block.Real {
		p.reals = append(p.reals, placedReal{m, lv})
	}
}

func (p *dupTestPolicy) SelectDup(leaf uint32, lv int) (block.Meta, bool) {
	for _, r := range p.reals {
		if r.lv > lv && !p.used[r.m.Addr] {
			p.used[r.m.Addr] = true
			return block.Meta{Kind: block.Shadow, Addr: r.m.Addr, Label: r.m.Label, SrcLevel: uint8(r.lv)}, true
		}
	}
	var pick block.Meta
	found := false
	p.st.ForEachShadow(func(e stash.Entry) {
		if !found && !p.used[e.Meta.Addr] && int(e.Meta.SrcLevel) > lv && p.geo.IntersectLevel(e.Meta.Label, leaf) >= lv {
			pick, found = e.Meta, true
		}
	})
	if found {
		p.used[pick.Addr] = true
	}
	return pick, found
}

func (p *dupTestPolicy) EndPathWrite()                     {}
func (p *dupTestPolicy) NoteLLCMiss(uint32)                {}
func (p *dupTestPolicy) NoteORAMRequest(bool)              {}
func (p *dupTestPolicy) ShadowPriority(addr uint32) uint64 { return uint64(addr % 5) }

// TestOpensOnlyUsedPayloads pins which payloads a functional access opens,
// on the engine's unexported open counter, one path access at a time (the
// observer marks where each begins):
//
//   - a read-only access opens at most one payload: its intended block's
//     real copy when the path holds it, none when that real is already in
//     the stash, and none when the access serves a write;
//   - an eviction's path read opens exactly the reals on the path, keeping
//     the shadows it collects sealed;
//   - its path write opens exactly the stash shadows still sealed that it
//     seals again;
//   - a stash hit opens a shadow still sealed when it serves it, once.
func TestOpensOnlyUsedPayloads(t *testing.T) {
	for _, direct := range []bool{true, false} {
		cfg := testConfig()
		cfg.Functional = true
		cfg.OnChipPosMapEntries = 16 // recursive: posmap fetches precede data accesses
		if direct {
			cfg.OnChipPosMapEntries = cfg.NumDataBlocks()
		}
		c := MustNew(cfg, &dupTestPolicy{})
		path := make([]int, c.geo.Levels())

		// onPath reports the kind of each non-dummy slot of leaf's path.
		onPath := func(leaf uint32, fn func(sl block.Slot)) {
			for _, bucket := range c.geo.Path(leaf, path) {
				for s := 0; s < c.geo.Z; s++ {
					if sl := c.store.get(bucket, s); sl.Kind() != block.Dummy {
						fn(sl)
					}
				}
			}
		}
		sealedShadows := func() map[uint32]bool {
			set := map[uint32]bool{}
			c.st.ForEachShadow(func(e stash.Entry) {
				if c.pl.isSealed(e.Data) {
					set[e.Meta.Addr] = true
				}
			})
			return set
		}

		// One segment per path access, from its observer event to the next.
		type segment struct {
			ev       Event
			opens    uint64 // counter at the event, then the segment's opens
			reals    int    // reals on the path when a read begins
			intended bool   // the request's real is among them
			sealed   map[uint32]bool
		}
		var segs []segment
		var addr uint32
		closeLast := func() {
			if n := len(segs); n > 0 {
				segs[n-1].opens = c.pl.opens - segs[n-1].opens
			}
		}
		c.SetObserver(func(e Event) {
			closeLast()
			s := segment{ev: e, opens: c.pl.opens}
			if e.Kind == EvPathRead {
				onPath(e.Leaf, func(sl block.Slot) {
					if sl.Kind() == block.Real {
						s.reals++
						s.intended = s.intended || sl.Addr() == addr
					}
				})
			} else {
				s.sealed = sealedShadows()
			}
			segs = append(segs, s)
		})

		var reads, evictShadows, resealed, hitsOnSealed int
		r := rng.NewXoshiro(5)
		now := int64(0)
		for i := 0; i < 3000; i++ {
			addr = uint32(r.Uint64n(96))
			write := r.Uint64n(3) == 0
			segs = segs[:0]
			before := c.pl.opens
			e, inStash := c.st.Lookup(addr)
			wasSealed := inStash && e.Meta.Kind == block.Shadow && c.pl.isSealed(e.Data)
			var out Outcome
			if write {
				var err error
				if out, err = c.WriteBlock(now, addr, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			} else {
				_, out = c.ReadBlock(now, addr)
			}
			now = out.Done + 1
			closeLast()

			if out.StashHit {
				want := uint64(0)
				if wasSealed && !write {
					want, hitsOnSealed = 1, hitsOnSealed+1
				}
				if got := c.pl.opens - before; got != want {
					t.Fatalf("direct=%v request %d: stash hit (sealed shadow %v, write %v) opened %d, want %d", direct, i, wasSealed, write, got, want)
				}
				continue
			}
			last := -1 // the data access: the last read not followed by its write
			for j := 0; j < len(segs); j++ {
				s := segs[j]
				switch {
				case s.ev.Kind == EvPathRead && j+1 < len(segs) && segs[j+1].ev.Kind == EvPathWrite:
					if s.opens != uint64(s.reals) {
						t.Fatalf("direct=%v request %d: eviction read of %d reals opened %d", direct, i, s.reals, s.opens)
					}
				case s.ev.Kind == EvPathWrite:
					want := 0
					onPath(s.ev.Leaf, func(sl block.Slot) {
						if sl.Kind() == block.Shadow && s.sealed[sl.Addr()] {
							want++
						}
					})
					if s.opens != uint64(want) {
						t.Fatalf("direct=%v request %d: eviction write sealing %d kept shadows again opened %d", direct, i, want, s.opens)
					}
					resealed += want
				default:
					if s.opens > 1 {
						t.Fatalf("direct=%v request %d: read-only access opened %d", direct, i, s.opens)
					}
					last = j
				}
			}
			if last < 0 {
				t.Fatalf("direct=%v request %d: no read-only access reached the tree", direct, i)
			}
			want := uint64(0)
			if !write && segs[last].intended {
				want = 1
			}
			if segs[last].opens != want {
				t.Fatalf("direct=%v request %d (write %v, real on path %v): data access opened %d, want %d",
					direct, i, write, segs[last].intended, segs[last].opens, want)
			}
			for _, s := range segs {
				if s.ev.Kind == EvPathRead {
					reads++
				}
			}
		}
		for _, sl := range c.store.slots {
			if sl.Kind() == block.Shadow {
				evictShadows++
			}
		}
		st := c.Stats()
		if st.Anomalies != 0 || st.StashOverflows != 0 {
			t.Fatalf("direct=%v: %d anomalies, %d stash overflows", direct, st.Anomalies, st.StashOverflows)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("direct=%v: %v", direct, err)
		}
		t.Logf("direct=%v: %d path reads, %d shadows in the tree at the end, %d kept shadows sealed again, %d stash hits on sealed shadows",
			direct, reads, evictShadows, resealed, hitsOnSealed)
		if evictShadows == 0 || resealed == 0 || hitsOnSealed == 0 {
			t.Fatalf("direct=%v: coverage too thin", direct)
		}

		// A data access whose real is already in the stash (a posmap
		// fetch's eviction can collect it just before) opens nothing:
		// stage that by collecting the block's path first.
		c.SetObserver(nil)
		for a := uint32(200); ; a++ {
			if _, ok := c.st.Lookup(a); ok {
				continue
			}
			leaf := c.Label(a)
			_, end, _ := c.pathRead(now, leaf, NoAddr, true, false)
			if _, ok := c.st.Lookup(a); !ok {
				t.Fatalf("direct=%v: collecting block %d's path left it outside the stash", direct, a)
			}
			before := c.pl.opens
			c.pathRead(end, leaf, a, false, false)
			if got := c.pl.opens - before; got != 0 {
				t.Fatalf("direct=%v: read-only access of block %d, already in the stash, opened %d", direct, a, got)
			}
			break
		}
	}
}
