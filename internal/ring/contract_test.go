package ring

import (
	"bytes"
	"fmt"
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/tree"
)

// writeRecorder is a DupPolicy that checks the path-write protocol as the
// engine drives it, forwarding every call (BindGeometry included, through
// the embedded policy) to the real shadow-block policy.
type writeRecorder struct {
	*core.Policy
	t *testing.T

	open      bool
	level     int         // level of the last call in the open write
	pending   *block.Meta // a SelectDup shadow awaiting its NoteEvict
	pendingLv int

	writes, bucketWrites, dups, bucketDups int
	minLv, maxLv                           int // levels touched in the open write
	dupsInWrite                            int
}

func (r *writeRecorder) BeginPathWrite(leaf uint32) {
	if r.open {
		r.t.Fatal("BeginPathWrite inside an open path write")
	}
	r.open, r.level, r.minLv, r.maxLv, r.dupsInWrite = true, 1<<30, 1<<30, -1, 0
	r.Policy.BeginPathWrite(leaf)
}

// step checks a per-slot call: inside a write, at a level no higher than
// the last, and not while a selected shadow still awaits its NoteEvict.
func (r *writeRecorder) step(call string, lv int) {
	r.t.Helper()
	switch {
	case !r.open:
		r.t.Fatalf("%s(level %d) outside a path write", call, lv)
	case lv > r.level:
		r.t.Fatalf("%s at level %d after level %d: levels increased within a write", call, lv, r.level)
	}
	r.level = lv
	r.minLv, r.maxLv = min(r.minLv, lv), max(r.maxLv, lv)
}

func (r *writeRecorder) NoteEvict(m block.Meta, lv int) {
	r.step("NoteEvict", lv)
	if p := r.pending; p != nil {
		if *p != m || r.pendingLv != lv {
			r.t.Fatalf("SelectDup returned %v at level %d, next NoteEvict is %v at level %d", *p, r.pendingLv, m, lv)
		}
		r.pending = nil
	}
	r.Policy.NoteEvict(m, lv)
}

func (r *writeRecorder) SelectDup(leaf uint32, lv int) (block.Meta, bool) {
	r.step("SelectDup", lv)
	if r.pending != nil {
		r.t.Fatalf("SelectDup at level %d before the NoteEvict of %v", lv, *r.pending)
	}
	m, ok := r.Policy.SelectDup(leaf, lv)
	if ok {
		r.pending, r.pendingLv = &m, lv
		r.dupsInWrite++
	}
	return m, ok
}

func (r *writeRecorder) EndPathWrite() {
	switch {
	case !r.open:
		r.t.Fatal("EndPathWrite without an open path write")
	case r.pending != nil:
		r.t.Fatalf("EndPathWrite before the NoteEvict of %v", *r.pending)
	}
	r.open = false
	r.writes++
	r.dups += r.dupsInWrite
	if r.minLv == r.maxLv { // one bucket: a Ring reshuffle
		r.bucketWrites++
		r.bucketDups += r.dupsInWrite
	}
	r.Policy.EndPathWrite()
}

// TestPolicyWriteContract drives the shadow-block policy through every
// engine and memory-port variant and checks the DupPolicy write protocol
// on each path write and reshuffle: NoteEvict and SelectDup only inside
// one unnested BeginPathWrite..EndPathWrite, levels never increasing, and
// each shadow SelectDup returns placed at once by a NoteEvict of the same
// meta and level.
func TestPolicyWriteContract(t *testing.T) {
	for _, tc := range []struct {
		name, engine string
		tune         func(*oram.Config)
	}{
		{"path", oram.PathEngine, func(*oram.Config) {}},
		{"path-pipe-c4-wbd", oram.PathEngine, func(c *oram.Config) {
			c.Pipeline, c.Channels, c.WBDecoupled = true, 4, true
		}},
		{"ring", EngineName, func(*oram.Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := core.NewUnbound(core.Dynamic(3))
			if err != nil {
				t.Fatal(err)
			}
			rec := &writeRecorder{Policy: pol, t: t}
			cfg := testConfig()
			tc.tune(&cfg)
			eng, err := oram.NewEngine(tc.engine, cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			driveEngine(t, eng, 3000)
			if rec.open {
				t.Fatal("a path write was left open")
			}
			st := eng.Stats()
			if st.EvictionPhases == 0 || rec.dups == 0 {
				t.Fatalf("%d evictions, %d shadows placed: the protocol went unexercised", st.EvictionPhases, rec.dups)
			}
			if uint64(rec.writes) != st.EvictionPhases+st.Reshuffles || uint64(rec.bucketWrites) != st.Reshuffles {
				t.Fatalf("%d writes (%d of one bucket), want one per eviction (%d) and one per reshuffle (%d)",
					rec.writes, rec.bucketWrites, st.EvictionPhases, st.Reshuffles)
			}
			if tc.engine == EngineName && (st.Reshuffles == 0 || rec.bucketDups == 0) {
				t.Fatalf("%d reshuffles placing %d shadows: the reshuffle write went unexercised",
					st.Reshuffles, rec.bucketDups)
			}
		})
	}
}

// TestPositionMapContract: every registered engine stands on the one
// position map below the seam (oram.Shared), so each honours DirectPosMap
// and OnChipPosMapEntries alike. At L=12 the default recursive map keeps
// 1 024 posmap blocks in the tree, which a walk fetches; a 16-entry on-chip
// top adds a second level, 1 088 blocks for the 1 024-entry PLB, so its
// fills displace; the direct map fetches nothing. The structural walker
// stays clean throughout, parked PLB blocks included.
func TestPositionMapContract(t *testing.T) {
	for _, engine := range oram.Engines() {
		for _, tc := range []struct {
			name string
			tune func(*oram.Config)
			ok   func(oram.Stats) bool
		}{
			{"direct", func(c *oram.Config) { c.DirectPosMap = true },
				func(s oram.Stats) bool { return s.PMAccesses == 0 && s.PLBWritebacks == 0 }},
			{"recursive", func(*oram.Config) {},
				func(s oram.Stats) bool { return s.PMAccesses > 0 }},
			{"small-onchip", func(c *oram.Config) { c.OnChipPosMapEntries = 16 },
				func(s oram.Stats) bool { return s.PMAccesses > 0 && s.PLBWritebacks > 0 }},
		} {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				cfg := testConfig()
				cfg.L, cfg.StashCapacity = 12, oram.Default().StashCapacity
				tc.tune(&cfg)
				pol, err := core.NewUnbound(core.Dynamic(3))
				if err != nil {
					t.Fatal(err)
				}
				eng, err := oram.NewEngine(engine, cfg, pol)
				if err != nil {
					t.Fatal(err)
				}
				check := eng.(interface{ CheckInvariants() error }).CheckInvariants
				r := rng.NewXoshiro(5)
				space := uint64(cfg.NumDataBlocks())
				now := int64(0)
				for i := 1; i <= 3000; i++ {
					now = eng.Request(now, uint32(r.Uint64n(space)), r.Uint64n(5) == 0).Forward + 200
					if i%500 == 0 {
						if err := check(); err != nil {
							t.Fatalf("after request %d: %v", i, err)
						}
					}
				}
				st := eng.Stats()
				t.Logf("%d posmap fetches, %d PLB displacements, %d anomalies", st.PMAccesses, st.PLBWritebacks, st.Anomalies)
				if !tc.ok(st) || st.Anomalies != 0 || st.StashOverflows != 0 {
					t.Errorf("stats %+v break the %s contract", st, tc.name)
				}
			})
		}
	}
}

// TestTimingProtectionScheduleContract: under timing protection the server
// sees one access per slot, real or dummy, and an eviction every A of them
// (DESIGN.md §3, note 5), so which operations it sees must not depend on
// which requests arrived or when. Every engine runs the same cycle window
// over four request streams: random addresses back to back, the same with
// 20 idle slots before each request (filled with dummies), and address 7
// repeated — after its first access nearly every request is a stash hit —
// in both timings. The sequences of path reads (R) and path writes (W)
// the observer records must all agree with the first stream's on their
// common prefix. On Ring each stream must also follow Ring ORAM's
// reshuffle rule as the observer can check it (reshuffleViolations).
func TestTimingProtectionScheduleContract(t *testing.T) {
	const rate, window = 500, 1_000_000
	streams := []struct {
		name   string
		gap    int64
		repeat bool
	}{
		{"back to back", 0, false},
		{"with idle slots", 20 * rate, false},
		{"address 7 back to back", 0, true},
		{"address 7 with idle slots", 20 * rate, true},
	}
	for _, engine := range oram.Engines() {
		t.Run(engine, func(t *testing.T) {
			cfg := testConfig()
			cfg.TimingProtection, cfg.RequestRate, cfg.DirectPosMap = true, rate, true
			schedule := func(gap int64, repeat bool) []oram.Event {
				eng, err := oram.NewEngine(engine, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				var seen []oram.Event
				eng.SetObserver(func(e oram.Event) { seen = append(seen, e) })
				r := rng.NewXoshiro(3)
				space := uint64(cfg.NumDataBlocks())
				for now := int64(0); now < window; {
					addr := uint32(7)
					if !repeat {
						addr = uint32(r.Uint64n(space))
					}
					now = eng.Request(now, addr, false).Done + gap
				}
				return seen
			}
			pathOps := func(events []oram.Event) []byte {
				var ops []byte
				for _, e := range events {
					if e.Start < window && (e.Kind == oram.EvPathRead || e.Kind == oram.EvPathWrite) {
						ops = append(ops, "RW"[e.Kind])
					}
				}
				return ops
			}
			events := make([][]oram.Event, len(streams))
			var ref []byte
			for i, st := range streams {
				events[i] = schedule(st.gap, st.repeat)
				ops := pathOps(events[i])
				if i == 0 {
					ref = ops
					continue
				}
				n := min(len(ref), len(ops))
				for j := 0; j < n; j++ {
					if ref[j] != ops[j] {
						from := max(0, j-7)
						t.Fatalf("event %d differs: %s %s, %s %s", j+1, ref[from:j+1], streams[0].name, ops[from:j+1], st.name)
					}
				}
				writes := bytes.Count(ops[:n], []byte("W"))
				t.Logf("%s: %d path events against %d, %d path writes in the common prefix", st.name, len(ops), len(ref), writes)
				if n < 200 || writes == 0 {
					t.Fatalf("%s: common prefix of %d events with %d path writes: the schedule went unexercised", st.name, n, writes)
				}
			}
			if engine != EngineName {
				return
			}
			geo, err := tree.NewGeometry(cfg.L, Classic.Z+Classic.S)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range streams {
				violations, reshuffles := reshuffleViolations(geo, Classic.S, events[i])
				t.Logf("%s: %d reshuffles, %d violations", st.name, reshuffles, len(violations))
				if len(violations) > 0 {
					t.Errorf("%s: %d violations of the S-read rule, the first: %s", st.name, len(violations), violations[0])
				}
				if reshuffles == 0 {
					t.Errorf("%s: no reshuffle seen; the rule went unexercised", st.name)
				}
			}
		})
	}
}

// reshuffleViolations replays an engine's events through the observer's
// model of Ring ORAM's reshuffle rule, which needs nothing the server does
// not see: a path read counts one read of every bucket on its path, a path
// write and a bucket write reset the count of every bucket they write, a
// bucket read (a reshuffle) must find its bucket's count at exactly s, and
// no bucket may be read s+1 times between writes. It returns each
// violation and the number of bucket reads.
func reshuffleViolations(geo tree.Geometry, s int, events []oram.Event) (violations []string, reshuffles int) {
	reads := make([]int, geo.NumBuckets())
	path := make([]int, geo.Levels())
	for i, e := range events {
		switch e.Kind {
		case oram.EvPathRead:
			for _, b := range geo.Path(e.Leaf, path) {
				if reads[b]++; reads[b] == s+1 {
					violations = append(violations, fmt.Sprintf("event %d: bucket %d read %d times since its last write", i+1, b, s+1))
				}
			}
		case oram.EvPathWrite:
			for _, b := range geo.Path(e.Leaf, path) {
				reads[b] = 0
			}
		case oram.EvBucketRead:
			reshuffles++
			if reads[e.Leaf] != s {
				violations = append(violations, fmt.Sprintf("event %d: bucket %d reshuffled after %d reads", i+1, e.Leaf, reads[e.Leaf]))
			}
		case oram.EvBucketWrite:
			reads[e.Leaf] = 0
		}
	}
	return violations, reshuffles
}
