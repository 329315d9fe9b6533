package ring

import (
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
	space := uint64(eng.NumDataBlocks())
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

// TestEngineCaps pins Ring's capability surface: the multi-core front end
// composes, the Path-only machinery is rejected at construction.
func TestEngineCaps(t *testing.T) {
	info, ok := oram.LookupEngine(EngineName)
	if !ok {
		t.Fatal("ring engine not registered")
	}
	if !info.Caps.Cores {
		t.Error("ring must compose with the multi-core front end")
	}
	for _, tc := range []struct {
		name   string
		mutate func(*oram.Config)
	}{
		{"pipeline", func(c *oram.Config) { c.Pipeline = true }},
		{"channels", func(c *oram.Config) { c.Channels = 2 }},
		{"wbd", func(c *oram.Config) { c.WBDecoupled = true }},
		{"functional", func(c *oram.Config) { c.Functional = true }},
		{"treetop", func(c *oram.Config) { c.TreetopLevels = 2 }},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		if _, err := oram.NewEngine(EngineName, cfg, nil); err == nil {
			t.Errorf("%s: accepted despite ring's capabilities", tc.name)
		} else if !strings.Contains(err.Error(), EngineName) {
			t.Errorf("%s: error %q does not name the engine", tc.name, err)
		}
	}
}

// TestEngineThroughQueue runs Ring behind the shared MSHR front end with a
// collector attached: the live snapshot names the engine, the ledger
// telescopes, and its rows carry Ring's stage vocabulary.
func TestEngineThroughQueue(t *testing.T) {
	eng, err := oram.NewEngine(EngineName, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(metrics.Options{Ledger: true})
	eng.SetMetrics(col)
	q := oram.NewQueue(eng, 2)
	q.SetMetrics(col)
	if q.Engine().Name() != EngineName {
		t.Fatalf("queue engine = %q", q.Engine().Name())
	}

	r := rng.NewXoshiro(7)
	space := uint64(eng.NumDataBlocks())
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
	if rep.Ledger.Stage("ring_read").Count == 0 {
		t.Fatalf("ring_read stage missing: %+v", rep.Ledger.Stages)
	}
	if rep.Ledger.Stage("path_read").Count != 0 {
		t.Fatalf("path vocabulary leaked into a ring report: %+v", rep.Ledger.Stages)
	}
	if snap := col.Live(); snap == nil || snap.Engine != EngineName {
		t.Fatalf("live snapshot does not name the engine: %+v", snap)
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
