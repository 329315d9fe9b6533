package core

import (
	"math"
	"testing"

	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/tree"
)

// collectTrace drives an engine with a fixed request schedule and returns
// everything an attacker can observe: the kind, leaf and start cycle of
// every external operation.
func collectTrace(ctrl oram.Engine, n int, seed uint64) []oram.Event {
	var events []oram.Event
	ctrl.SetObserver(func(e oram.Event) { events = append(events, e) })
	r := rng.NewXoshiro(seed)
	space := uint64(ctrl.NumDataBlocks())
	for i := 0; i < n; i++ {
		// Fixed arrival schedule, independent of responses, so the two
		// controllers under comparison see identical inputs.
		ctrl.Request(int64(i)*1700, uint32(r.Uint64n(space)), r.Float64() < 0.3)
	}
	return events
}

// TestShadowTraceIdenticalToTiny is the paper's §IV-B access-pattern
// argument as an executable check: duplication only changes what dummy
// slots *contain*, never which physical locations are touched or when.
// With shadow stash hits disabled (so both controllers serve the exact same
// request stream), Tiny ORAM and every shadow configuration must produce
// byte-identical external traces under the same seed.
func TestShadowTraceIdenticalToTiny(t *testing.T) {
	base := testORAMConfig()
	base.DisableShadowHits = true

	tiny := collectTrace(oram.MustNew(base, nil), 400, 77)
	for _, pcfg := range []Config{RDOnly(), HDOnly(), Static(4), Dynamic(3)} {
		pcfg := pcfg
		t.Run(pcfg.Mode.String(), func(t *testing.T) {
			ctrl, _, err := New(base, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			got := collectTrace(ctrl, 400, 77)
			if len(got) != len(tiny) {
				t.Fatalf("trace length %d, tiny %d", len(got), len(tiny))
			}
			for i := range got {
				if got[i] != tiny[i] {
					t.Fatalf("event %d differs: %+v vs %+v", i, got[i], tiny[i])
				}
			}
		})
	}
}

// TestShadowTraceIdenticalWithTimingProtection repeats the comparison under
// constant-rate requests, where dummy scheduling is part of the observable
// pattern.
func TestShadowTraceIdenticalWithTimingProtection(t *testing.T) {
	base := testORAMConfig()
	base.DisableShadowHits = true
	base.TimingProtection = true
	base.RequestRate = 800

	tiny := collectTrace(oram.MustNew(base, nil), 200, 79)
	ctrl, _, err := New(base, Dynamic(3))
	if err != nil {
		t.Fatal(err)
	}
	got := collectTrace(ctrl, 200, 79)
	if len(got) != len(tiny) {
		t.Fatalf("trace length %d, tiny %d", len(got), len(tiny))
	}
	for i := range got {
		if got[i] != tiny[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], tiny[i])
		}
	}
}

// TestLeafUniformity checks that the read-path leaves a shadow ORAM emits
// (with stash hits enabled, i.e. the deployed configuration) stay uniform:
// a chi-squared statistic over leaf quartiles must stay far below the
// rejection threshold a distinguisher would need.
func TestLeafUniformity(t *testing.T) {
	ctrl, _, err := New(testORAMConfig(), Dynamic(3))
	if err != nil {
		t.Fatal(err)
	}
	events := collectTrace(ctrl, 1200, 81)
	leaves := 0
	const bins = 16
	var hist [bins]float64
	geo := ctrl.Geometry()
	for _, e := range events {
		if e.Kind != oram.EvPathRead {
			continue
		}
		hist[int(e.Leaf)*bins/int(geo.NumLeaves())]++
		leaves++
	}
	expect := float64(leaves) / bins
	chi2 := 0.0
	for _, h := range hist {
		d := h - expect
		chi2 += d * d / expect
	}
	// 15 degrees of freedom: 99.9th percentile ~ 37.7. The eviction paths'
	// reverse-lex order is perfectly uniform and access paths are fresh
	// random labels, so chi2 should be modest.
	if chi2 > 37.7 {
		t.Fatalf("leaf distribution skewed: chi2 = %.1f over %d reads", chi2, leaves)
	}
}

// TestRRWPDistinguisher reproduces the paper's §III argument. If the
// intended block were always fetched first (naively advancing the access),
// the attacker would learn each request's tree position and could count
// Read-Recent-Written-Path events: cyclic access sequences re-read
// recently written paths far more often than scans, so the two leak apart.
// The shadow design never reveals the intended position — the first
// location read is always the root — so the same statistic carries no
// signal.
func TestRRWPDistinguisher(t *testing.T) {
	geo, err := tree.NewGeometry(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Model the naive scheme at the abstraction of observed first-reads:
	// the attacker sees, per request, the bucket whose block is fetched
	// first, and remembers which paths were recently written.
	naiveRRWP := func(seq []uint32, k int) float64 {
		labels := make(map[uint32]uint32)
		r := rng.NewXoshiro(5)
		recent := make([]uint32, 0, k)
		hits := 0
		for _, a := range seq {
			l, ok := labels[a]
			if !ok {
				l = uint32(r.Uint64n(uint64(geo.NumLeaves())))
			}
			// The naive first-read exposes the intended path l; check it
			// against the last k written paths.
			for _, w := range recent {
				if w == l {
					hits++
					break
				}
			}
			// Remap and "write back" along the new path, which the
			// attacker sees as the most recent write.
			nl := uint32(r.Uint64n(uint64(geo.NumLeaves())))
			labels[a] = nl
			recent = append(recent, nl)
			if len(recent) > k {
				recent = recent[1:]
			}
		}
		return float64(hits) / float64(len(seq))
	}

	n := 4000
	scan := make([]uint32, n)
	cyclic := make([]uint32, n)
	for i := range scan {
		scan[i] = uint32(i)
		cyclic[i] = uint32(i % 8)
	}
	const k = 16
	s, c := naiveRRWP(scan, k), naiveRRWP(cyclic, k)
	if c < 10*s+0.05 {
		t.Fatalf("naive ordering should leak: scan RRWP=%.4f cyclic RRWP=%.4f", s, c)
	}

	// Shadow ORAM: the observable first-read is the root for every access;
	// the leaf sequence is fresh-random regardless of the program. Compare
	// the full observable leaf sequences of scan vs cyclic statistically:
	// means within noise.
	obs := func(seq []uint32) float64 {
		cfg := testORAMConfig()
		ctrl, _, err := New(cfg, RDOnly())
		if err != nil {
			t.Fatal(err)
		}
		var sum, cnt float64
		ctrl.SetObserver(func(e oram.Event) {
			if e.Kind == oram.EvPathRead {
				sum += float64(e.Leaf)
				cnt++
			}
		})
		space := uint32(ctrl.NumDataBlocks())
		for i, a := range seq[:600] {
			ctrl.Request(int64(i)*1500, a%space, false)
		}
		return sum / cnt
	}
	mid := float64(int(1) << (testORAMConfig().L - 1))
	ms, mc := obs(scan), obs(cyclic)
	if math.Abs(ms-mid)/mid > 0.1 || math.Abs(mc-mid)/mid > 0.1 {
		t.Fatalf("shadow leaf means drifted from uniform midpoint: scan=%.0f cyclic=%.0f mid=%.0f", ms, mc, mid)
	}
}
