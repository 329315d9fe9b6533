package ring

import (
	"fmt"
	"strings"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
)

func driveEngine(t *testing.T, eng oram.Engine, n int) int64 {
	t.Helper()
	r := rng.NewXoshiro(99)
	space := uint64(eng.(interface{ NumDataBlocks() int }).NumDataBlocks()) // oram.Shared's
	now := int64(0)
	for i := 0; i < n; i++ {
		out := eng.Request(now, uint32(r.Uint64n(space)), i%5 == 0)
		now = out.Forward + 300
	}
	return now
}

// TestSeamMatchesDirectConstruction proves the registry path
// (oram.NewEngine) is the same machine as direct construction: identical
// timing and counters on the same request stream, with and without a
// shadow policy.
func TestSeamMatchesDirectConstruction(t *testing.T) {
	const n = 1500

	direct := MustNew(testConfig(), Classic, nil)
	directEnd := driveEngine(t, direct, n)
	seam, err := oram.NewEngine(EngineName, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seamEnd := driveEngine(t, seam, n)
	if directEnd != seamEnd {
		t.Fatalf("plain: seam %d cycles, direct %d", seamEnd, directEnd)
	}
	if seam.Stats() != direct.Stats() {
		t.Fatalf("plain stats diverged: %+v vs %+v", seam.Stats(), direct.Stats())
	}

	shadowDirect := newShadowRing(t, testConfig(), core.Dynamic(3))
	shadowDirectEnd := driveEngine(t, shadowDirect, n)
	pol, err := core.NewUnbound(core.Dynamic(3))
	if err != nil {
		t.Fatal(err)
	}
	shadowSeam, err := oram.NewEngine(EngineName, testConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	shadowSeamEnd := driveEngine(t, shadowSeam, n)
	if shadowDirectEnd != shadowSeamEnd {
		t.Fatalf("shadow: seam %d cycles, direct %d", shadowSeamEnd, shadowDirectEnd)
	}
	ss := shadowSeam.Stats()
	if ss != shadowDirect.Stats() {
		t.Fatalf("shadow stats diverged: %+v vs %+v", ss, shadowDirect.Stats())
	}
	if ss.ShadowForwards == 0 && ss.ShadowStashHits == 0 {
		t.Fatal("shadow run produced no shadow activity; the policy did not bind")
	}
	if err := shadowSeam.(*Controller).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructorsRejectPathOnlyAxes pins Ring's configuration surface:
// every memory-system axis composes through the memory port, the
// Path-only machinery (functional payloads, the treetop cache) is rejected
// at construction, by ring.New itself and so through the registry, with an
// error naming the engine and the axis, and so is an invalid shared axis,
// which oram.NewShared validates for every engine, with an error naming
// the axis.
func TestConstructorsRejectPathOnlyAxes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*oram.Config)
		want   []string // what the error names; nil = accepted
	}{
		{"channels", func(c *oram.Config) { c.Channels = 2 }, nil},
		{"wbd", func(c *oram.Config) { c.WBDecoupled = true }, nil},
		{"c4-wbd", func(c *oram.Config) { c.Channels, c.WBDecoupled = 4, true }, nil},
		{"functional", func(c *oram.Config) { c.Functional = true }, []string{EngineName, "functional"}},
		{"treetop", func(c *oram.Config) { c.TreetopLevels = 2 }, []string{EngineName, "treetop"}},
		{"L=3", func(c *oram.Config) { c.L = 3 }, []string{"L=3"}},
		{"stash below one path", func(c *oram.Config) { c.StashCapacity = c.Z*(c.L+1) - 1 }, []string{"stash capacity"}},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		_, direct := New(cfg, Classic, nil)
		eng, err := oram.NewEngine(EngineName, cfg, nil)
		for _, e := range []error{direct, err} {
			switch {
			case tc.want == nil && e != nil:
				t.Errorf("%s: rejected: %v", tc.name, e)
			case tc.want == nil:
			case e == nil:
				t.Errorf("%s: accepted", tc.name)
			default:
				for _, w := range tc.want {
					if !strings.Contains(e.Error(), w) {
						t.Errorf("%s: error %q does not name %q", tc.name, e, w)
					}
				}
			}
		}
		if tc.want == nil && err == nil {
			driveEngine(t, eng, 300)
		}
	}
}

// TestEngineThroughQueue runs Ring behind the shared MSHR front end with a
// collector attached: the live report names the engine and the ledger
// telescopes.
func TestEngineThroughQueue(t *testing.T) {
	eng, err := oram.NewEngine(EngineName, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(metrics.Options{Ledger: true})
	col.EnableLive() // as the debug mux does: the live report is built for a reader
	eng.SetMetrics(col)
	q := oram.NewQueue(eng, 2)
	q.SetMetrics(col)

	r := rng.NewXoshiro(7)
	space := uint64(testConfig().NumDataBlocks())
	now := int64(0)
	for i := 0; i < 600; i++ {
		fwd, _ := q.Issue(now, i%2, uint32(r.Uint64n(space)), i%4 == 0)
		now = fwd + 250
	}

	rep := col.Report(now, nil)
	if rep.Ledger == nil {
		t.Fatal("no ledger in the report")
	}
	if rep.Ledger.Violations != 0 {
		t.Fatalf("ring attribution does not telescope: %d violations", rep.Ledger.Violations)
	}
	if live := col.Live(); live == nil || live.Schema != metrics.Schema || live.Engine != EngineName {
		t.Fatalf("live report does not name the engine: %+v", live)
	}

	// Ring stores no payloads: the functional operations must panic with the
	// engine's name, not nil-deref.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("functional Read on a ring engine did not panic")
		} else if !strings.Contains(r.(string), EngineName) {
			t.Fatalf("panic %v does not name the engine", r)
		}
	}()
	q.Read(now, 0, 1)
}

// TestMemoryPortAxesOnRing drives ring:dynamic-3-c4-wbd through a
// four-core queue: the tree walker and the write-back queue's walker stay
// clean throughout, the scheduler really parks, forces and slots Ring's
// eviction and reshuffle writes, and Drain empties it with the retirement
// accounting closed.
func TestMemoryPortAxesOnRing(t *testing.T) {
	cfg := testConfig()
	cfg.Channels, cfg.WBDecoupled = 4, true
	c := newShadowRing(t, cfg, core.Dynamic(3))
	q := oram.NewQueue(c, 4)
	r := rng.NewXoshiro(23)
	space := uint64(c.NumDataBlocks())
	var now int64
	for i := 0; i < 1500; i++ {
		fwd, _ := q.Issue(now, i%4, uint32(r.Uint64n(space)), i%3 == 0)
		now = fwd + int64(r.Uint64n(300))
		if i%100 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("after request %d: %v", i, err)
			}
			if err := c.CheckWritebackInvariants(); err != nil {
				t.Fatalf("after request %d: %v", i, err)
			}
		}
	}
	st := c.Stats()
	if st.WBEnqueued == 0 || st.WBForced == 0 || st.WBSlotted == 0 || st.Reshuffles == 0 {
		t.Fatalf("the write-back queue never exercised Ring's writes: %+v", st)
	}
	// One op per bucket of every eviction's path, plus one per reshuffle.
	if want := st.EvictionPhases*uint64(c.geo.Levels()) + st.Reshuffles; st.WBEnqueued != want {
		t.Errorf("%d write ops parked, want %d (evictions × levels + reshuffles)", st.WBEnqueued, want)
	}
	// Closed accounting, with the walker's enqueued = retired + pending,
	// leaves nothing queued.
	c.Drain()
	st = c.Stats()
	if st.WBEnqueued != st.WBSlotted+st.WBForced+st.WBFlushed || st.Anomalies != 0 {
		t.Fatalf("accounting open after Drain: %+v", st)
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRingChannelOneMatchesOneChannelDRAM pins ring:X-c1 to ring:X on a
// single-channel DRAM configuration cycle for cycle: the one-channel
// interleaved layout produces the plain layout's addresses, so every
// event's start cycle, every counter and the final drain must match, with
// and without the decoupled write-back scheduler.
func TestRingChannelOneMatchesOneChannelDRAM(t *testing.T) {
	for _, wbd := range []bool{false, true} {
		run := func(channels int) ([]oram.Event, oram.Stats, int64) {
			cfg := testConfig()
			cfg.DRAM.Channels = 1
			cfg.WBDecoupled = wbd
			cfg.Channels = channels
			c := newShadowRing(t, cfg, core.Dynamic(3))
			var events []oram.Event
			c.SetObserver(func(e oram.Event) { events = append(events, e) })
			driveEngine(t, c, 1500)
			return events, c.Stats(), c.Drain()
		}
		legacy, legacyStats, legacyDrain := run(0)
		ch1, ch1Stats, ch1Drain := run(1)
		if len(ch1) != len(legacy) || ch1Stats != legacyStats || ch1Drain != legacyDrain {
			t.Fatalf("wbd=%v: -c1 ran %d events to %d (%+v), one-channel DRAM %d to %d (%+v)",
				wbd, len(ch1), ch1Drain, ch1Stats, len(legacy), legacyDrain, legacyStats)
		}
		for i := range ch1 {
			if ch1[i] != legacy[i] {
				t.Fatalf("wbd=%v: event %d = %+v, one-channel DRAM %+v", wbd, i, ch1[i], legacy[i])
			}
		}
	}
}

// TestHDDupKeepsRule2 drives the write-heavy workload under which Ring's
// HD-Dup once broke Rule-2 (DESIGN.md §7, finding 10): a read whose remap
// drew the same leaf again left the block's fresh shadows on the path it
// had just moved the real copy off, and a later eviction placed the real
// copy shallower than them. Every seed of both hot-block policies must keep
// the tree walker clean.
func TestHDDupKeepsRule2(t *testing.T) {
	for _, pc := range []struct {
		name string
		cfg  core.Config
	}{{"hd", core.HDOnly()}, {"dynamic-3", core.Dynamic(3)}} {
		t.Run(pc.name, func(t *testing.T) {
			failed := 0
			for seed := uint64(1); seed <= 30; seed++ {
				if err := rule2Run(t, pc.cfg, seed); err != nil {
					failed++
					t.Errorf("seed %d: %v", seed, err)
				}
			}
			if failed > 0 {
				t.Errorf("%d/30 seeds broke the tree invariants", failed)
			}
		})
	}
}

// rule2Run serves 1 500 requests, a third of them writes, with 0–300-cycle
// gaps, walking the tree every 50 requests; it returns the first violation.
func rule2Run(t *testing.T, pcfg core.Config, seed uint64) error {
	cfg := testConfig()
	cfg.Seed = seed
	c := newShadowRing(t, cfg, pcfg)
	r := rng.NewXoshiro(seed)
	space := uint64(c.NumDataBlocks())
	var now int64
	for i := 0; i < 1500; i++ {
		out := c.Request(now, uint32(r.Uint64n(space)), i%3 == 0)
		now = out.Forward + int64(r.Uint64n(300))
		if i%50 == 0 {
			if err := c.CheckInvariants(); err != nil {
				return fmt.Errorf("after request %d: %w", i, err)
			}
		}
	}
	return c.CheckInvariants()
}
