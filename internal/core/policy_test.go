package core

import (
	"testing"

	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
)

func testORAMConfig() oram.Config {
	cfg := oram.Default()
	cfg.L = 8
	cfg.StashCapacity = 150
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := []Config{RDOnly(), HDOnly(), Static(7), Dynamic(3)}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v rejected: %v", c.Mode, err)
		}
	}
	bad := []Config{
		{Mode: Mode(9)},
		{Mode: ModeStatic, PartitionLevel: -1},
		{Mode: ModeDynamic, DRICounterBits: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewUnbound(c); err == nil {
			t.Errorf("bad config %d built a policy", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeRD.String() != "rd-dup" || ModeHD.String() != "hd-dup" ||
		ModeStatic.String() != "static" || ModeDynamic.String() != "dynamic" {
		t.Fatal("mode strings wrong")
	}
}

func runShadow(t *testing.T, ocfg oram.Config, pcfg Config, n int, seed uint64) (*oram.Controller, *Policy) {
	t.Helper()
	ctrl, pol, err := New(ocfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pol.SetMetrics(metrics.New(metrics.Options{}))
	r := rng.NewXoshiro(seed)
	space := uint64(ctrl.NumDataBlocks())
	hot := space / 64
	now := int64(0)
	for i := 0; i < n; i++ {
		var addr uint32
		if r.Float64() < 0.6 {
			addr = uint32(r.Uint64n(hot)) // hot region
		} else {
			addr = uint32(r.Uint64n(space))
		}
		out := ctrl.Request(now, addr, r.Float64() < 0.25)
		now = out.Forward + int64(r.Uint64n(400))
	}
	return ctrl, pol
}

// shadowCounts returns how many shadows each scheme has created, as the
// policy counts them in its collector.
func shadowCounts(p *Policy) (rd, hd uint64) {
	cs := p.mc.Report(0, nil).Counters
	return cs["rd_shadows"], cs["hd_shadows"]
}

func TestAllModesPreserveInvariants(t *testing.T) {
	for _, pcfg := range []Config{RDOnly(), HDOnly(), Static(4), Dynamic(3)} {
		pcfg := pcfg
		t.Run(pcfg.Mode.String(), func(t *testing.T) {
			ctrl, _ := runShadow(t, testORAMConfig(), pcfg, 400, 21)
			if err := ctrl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := ctrl.Stats()
			if st.StashOverflows != 0 || st.Anomalies != 0 {
				t.Fatalf("overflows=%d anomalies=%d", st.StashOverflows, st.Anomalies)
			}
		})
	}
}

func TestInvariantsWithTimingProtection(t *testing.T) {
	ocfg := testORAMConfig()
	ocfg.TimingProtection = true
	ocfg.RequestRate = 800
	ctrl, _ := runShadow(t, ocfg, Dynamic(3), 300, 23)
	if err := ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stats().DummyAccesses == 0 {
		t.Fatal("no dummies under timing protection")
	}
}

func TestRDCreatesShadowsAndEarlyForwards(t *testing.T) {
	ctrl, pol := runShadow(t, testORAMConfig(), RDOnly(), 600, 25)
	rd, hd := shadowCounts(pol)
	if rd == 0 {
		t.Fatal("RD-Dup created no shadows")
	}
	if hd != 0 {
		t.Fatalf("RD-only mode created %d HD shadows", hd)
	}
	if ctrl.Stats().ShadowForwards == 0 {
		t.Fatal("no request was forwarded early from a shadow")
	}
}

func TestHDCreatesStashHits(t *testing.T) {
	ctrl, pol := runShadow(t, testORAMConfig(), HDOnly(), 800, 27)
	_, hd := shadowCounts(pol)
	if hd == 0 {
		t.Fatal("HD-Dup created no shadows")
	}
	if ctrl.Stats().ShadowStashHits == 0 {
		t.Fatal("HD-Dup produced no shadow stash hits on a hot workload")
	}
}

func TestStaticPartitionSplitsSchemes(t *testing.T) {
	_, pol := runShadow(t, testORAMConfig(), Static(4), 600, 29)
	rd, hd := shadowCounts(pol)
	if rd == 0 || hd == 0 {
		t.Fatalf("static partition should exercise both schemes: rd=%d hd=%d", rd, hd)
	}
	if pol.Partition() != 4 {
		t.Fatalf("partition = %d, want 4", pol.Partition())
	}
}

func TestDynamicPartitionTracksDummyPattern(t *testing.T) {
	ocfg := testORAMConfig()
	pcfg := Dynamic(3)
	_, pol, err := New(ocfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dummy-after-real pattern: long DRIs, counter rises, partition falls
	// (more RD-Dup).
	for i := 0; i < 50; i++ {
		pol.NoteORAMRequest(false)
		pol.NoteORAMRequest(true)
	}
	if pol.Partition() != 0 {
		t.Fatalf("partition = %d after sustained long DRIs, want 0", pol.Partition())
	}
	// Real-after-real: short DRIs, partition climbs toward all-HD.
	for i := 0; i < 80; i++ {
		pol.NoteORAMRequest(false)
	}
	if pol.Partition() != ocfg.L+1 {
		t.Fatalf("partition = %d after sustained short DRIs, want %d", pol.Partition(), ocfg.L+1)
	}
	if pol.MeanPartition() <= 0 {
		t.Fatal("mean partition not tracked")
	}
}

func TestFunctionalCorrectnessWithDuplication(t *testing.T) {
	ocfg := testORAMConfig()
	ocfg.Functional = true
	ctrl, _, err := New(ocfg, Static(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[uint32]byte)
	r := rng.NewXoshiro(31)
	now := int64(0)
	for i := 0; i < 500; i++ {
		addr := uint32(r.Uint64n(48)) // small hot space: heavy duplication
		if r.Float64() < 0.4 {
			v := byte(i)
			out, err := ctrl.WriteBlock(now, addr, []byte{v})
			if err != nil {
				t.Fatal(err)
			}
			ref[addr] = v
			now = out.Done + 1
		} else {
			got, out := ctrl.ReadBlock(now, addr)
			if want, ok := ref[addr]; ok && got[0] != want {
				t.Fatalf("iteration %d addr %d: got %d want %d", i, addr, got[0], want)
			}
			now = out.Done + 1
		}
	}
	if err := ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRule3StashOccupancyMatchesTiny(t *testing.T) {
	// Rule-3: shadows are always replaceable, so the stash's real-block
	// high-water mark must be identical to Tiny ORAM's under the same seed
	// and request schedule.
	ocfg := testORAMConfig()
	ocfg.DisableShadowHits = true // identical request streams

	drive := func(ctrl *oram.Controller) int {
		r := rng.NewXoshiro(33)
		space := uint64(ctrl.NumDataBlocks())
		for i := 0; i < 500; i++ {
			ctrl.Request(int64(i)*1500, uint32(r.Uint64n(space)), r.Float64() < 0.3)
		}
		return ctrl.Stash().MaxRealOccupancy()
	}

	tiny := oram.MustNew(ocfg, nil)
	shadowCtrl, _, err := New(ocfg, Static(4))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := drive(tiny), drive(shadowCtrl); a != b {
		t.Fatalf("stash real high-water: tiny=%d shadow=%d (Rule-3 violated)", a, b)
	}
}

func BenchmarkShadowRequest(b *testing.B) {
	ctrl, _, err := New(testORAMConfig(), Dynamic(3))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewXoshiro(35)
	space := uint64(ctrl.NumDataBlocks())
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ctrl.Request(now, uint32(r.Uint64n(space)), false)
		now = out.Done + 1
	}
}
