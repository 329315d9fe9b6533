package oram

import (
	"bytes"
	"testing"

	"shadowblock/internal/rng"
)

// testConfig returns a small, fast configuration for unit tests.
func testConfig() Config {
	cfg := Default()
	cfg.L = 8
	cfg.StashCapacity = 120
	return cfg
}

func TestNewValidatesConfig(t *testing.T) {
	bad := testConfig()
	bad.L = 1000
	if _, err := New(bad, nil); err == nil {
		t.Fatal("absurd L accepted")
	}
	bad = testConfig()
	bad.StashCapacity = 3
	if _, err := New(bad, nil); err == nil {
		t.Fatal("tiny stash accepted")
	}
	bad = testConfig()
	bad.TimingProtection = true
	bad.RequestRate = 0
	if _, err := New(bad, nil); err == nil {
		t.Fatal("zero request rate accepted")
	}
}

func TestInitialPlacementSatisfiesInvariants(t *testing.T) {
	c := MustNew(testConfig(), nil)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsPreserveInvariants(t *testing.T) {
	c := MustNew(testConfig(), nil)
	r := rng.NewXoshiro(7)
	n := uint64(c.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 300; i++ {
		addr := uint32(r.Uint64n(n))
		out := c.Request(now, addr, i%3 == 0)
		if out.Forward < now || out.Done < out.Forward && !out.StashHit {
			t.Fatalf("request %d: incoherent timing %+v (now=%d)", i, out, now)
		}
		now = out.Forward + 10
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Requests != 300 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.StashOverflows != 0 || st.Anomalies != 0 {
		t.Fatalf("overflows=%d anomalies=%d", st.StashOverflows, st.Anomalies)
	}
	if st.ORAMAccesses == 0 || st.EvictionPhases == 0 {
		t.Fatalf("no ORAM activity: %+v", st)
	}
}

func TestTimingMonotonicity(t *testing.T) {
	c := MustNew(testConfig(), nil)
	var prevDone int64
	r := rng.NewXoshiro(9)
	n := uint64(c.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 100; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), false)
		if out.Done < prevDone {
			t.Fatalf("controller time went backwards: %d < %d", out.Done, prevDone)
		}
		if out.Start < now {
			t.Fatalf("request started before it was presented: %d < %d", out.Start, now)
		}
		prevDone = out.Done
		now = out.Forward + 50
	}
}

func TestStashHitServesInstantly(t *testing.T) {
	c := MustNew(testConfig(), nil)
	// First access brings the block into the stash (it stays until evicted).
	first := c.Request(0, 42, false)
	if first.StashHit {
		t.Fatal("cold access reported a stash hit")
	}
	second := c.Request(first.Done+1, 42, false)
	if !second.StashHit {
		t.Fatal("immediate re-access missed the stash")
	}
	if second.Done-second.Start > 2 {
		t.Fatalf("stash hit took %d cycles", second.Done-second.Start)
	}
}

func TestEvictionRate(t *testing.T) {
	cfg := testConfig()
	cfg.DirectPosMap = true // one access per request, easier arithmetic
	c := MustNew(cfg, nil)
	r := rng.NewXoshiro(3)
	now := int64(0)
	for i := 0; i < 50; i++ {
		// Distinct cold addresses so no stash hits short-circuit accesses.
		out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
		now = out.Done + 1
	}
	st := c.Stats()
	want := st.ORAMAccesses / uint64(cfg.A) // eviction reads are also path reads
	// ORAMAccesses counts RO reads + eviction reads; eviction phases = (RO accesses)/A.
	ro := st.ORAMAccesses - st.EvictionPhases
	if st.EvictionPhases != ro/uint64(cfg.A) {
		t.Fatalf("eviction phases = %d, RO accesses = %d, A = %d (want %d, computed %d)",
			st.EvictionPhases, ro, cfg.A, ro/uint64(cfg.A), want)
	}
}

func TestTimingProtectionSlots(t *testing.T) {
	cfg := testConfig()
	cfg.TimingProtection = true
	cfg.RequestRate = 800
	c := MustNew(cfg, nil)

	var events []Event
	c.SetObserver(func(e Event) { events = append(events, e) })

	// Request at cycle 100: must start on a slot boundary.
	out := c.Request(100, 7, false)
	if out.Start%800 != 0 {
		t.Fatalf("request start %d not slot-aligned", out.Start)
	}
	// A long idle gap must be filled with dummies.
	idleEnd := out.Done + 10*800
	out2 := c.Request(idleEnd, 9, false)
	st := c.Stats()
	if st.DummyAccesses == 0 {
		t.Fatal("no dummy requests during a long idle gap")
	}
	if out2.Start%800 != 0 {
		t.Fatalf("second request start %d not slot-aligned", out2.Start)
	}
	for _, e := range events {
		if e.Kind == EvPathRead && e.Start%800 != 0 && e.Start != out.Start {
			// Eviction-phase reads chain mid-request; only request starts
			// must be aligned. Request starts are the reads at slot
			// boundaries, so nothing further to assert here.
			continue
		}
	}
}

func TestDummiesPreserveInvariants(t *testing.T) {
	cfg := testConfig()
	cfg.TimingProtection = true
	cfg.RequestRate = 400
	c := MustNew(cfg, nil)
	c.advance(100 * 400)
	if c.Stats().DummyAccesses == 0 {
		t.Fatal("advance issued no dummies")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalReadWrite(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	c := MustNew(cfg, nil)

	data := []byte("the quick brown fox")
	out, err := c.WriteBlock(0, 13, data)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.ReadBlock(out.Done+1, 13)
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("read back %q, want %q", got[:len(data)], data)
	}
	// Overwrite and read again after intervening traffic.
	data2 := []byte("jumps over the lazy dog")
	out, err = c.WriteBlock(out.Done+2, 13, data2)
	if err != nil {
		t.Fatal(err)
	}
	now := out.Done + 1
	for i := uint32(100); i < 140; i++ {
		o := c.Request(now, i, false)
		now = o.Done + 1
	}
	got, _ = c.ReadBlock(now, 13)
	if !bytes.Equal(got[:len(data2)], data2) {
		t.Fatalf("after traffic: read %q, want %q", got[:len(data2)], data2)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalManyBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	c := MustNew(cfg, nil)
	ref := make(map[uint32][]byte)
	r := rng.NewXoshiro(5)
	now := int64(0)
	for i := 0; i < 200; i++ {
		addr := uint32(r.Uint64n(64)) // small hot space to force overwrites
		if r.Float64() < 0.5 {
			v := []byte{byte(i), byte(i >> 8), byte(addr)}
			out, err := c.WriteBlock(now, addr, v)
			if err != nil {
				t.Fatal(err)
			}
			ref[addr] = v
			now = out.Done + 1
		} else {
			got, out := c.ReadBlock(now, addr)
			if want, ok := ref[addr]; ok && !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("iteration %d addr %d: got %v want %v", i, addr, got[:len(want)], want)
			}
			now = out.Done + 1
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecursivePosmapCostsAccesses(t *testing.T) {
	direct := testConfig()
	direct.DirectPosMap = true
	rec := testConfig()
	// L=8 has 1024 data blocks; force real recursion: 1024 -> 64 on-chip.
	rec.OnChipPosMapEntries = 64

	run := func(cfg Config) Stats {
		c := MustNew(cfg, nil)
		r := rng.NewXoshiro(11)
		now := int64(0)
		for i := 0; i < 200; i++ {
			out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
			now = out.Done + 1
		}
		return c.Stats()
	}
	sd, sr := run(direct), run(rec)
	if sd.PMAccesses != 0 {
		t.Fatalf("direct posmap performed %d PM accesses", sd.PMAccesses)
	}
	if sr.PMAccesses == 0 {
		t.Fatal("recursive posmap performed no PM accesses on a random workload")
	}
	if sr.ORAMAccesses <= sd.ORAMAccesses {
		t.Fatalf("recursive (%d) not more accesses than direct (%d)", sr.ORAMAccesses, sd.ORAMAccesses)
	}
}

func TestXORForwardsAtEnd(t *testing.T) {
	plain := testConfig()
	xcfg := testConfig()
	xcfg.XOR = true

	// run reports whether some request that tripped no eviction forwarded
	// before it was done; under xor no such request may.
	run := func(cfg Config) (early bool) {
		c := MustNew(cfg, nil)
		r := rng.NewXoshiro(13)
		now := int64(0)
		for i := 0; i < 100; i++ {
			evicts := c.Stats().EvictionPhases
			out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
			if out.Forward > out.Done {
				t.Fatalf("request %d forwarded at %d, after it was done at %d", i, out.Forward, out.Done)
			}
			if c.Stats().EvictionPhases == evicts && out.Forward < out.Done {
				if cfg.XOR {
					t.Fatalf("request %d forwarded at %d under XOR, before its path read completed at %d",
						i, out.Forward, out.Done)
				}
				early = true
			}
			now = out.Done + 1
		}
		return early
	}
	// Under XOR compression the intended block only exists once the whole
	// path has been XOR-ed: a request without an eviction forwards when it
	// is done.
	run(xcfg)
	// Plain Tiny ORAM forwards the intended block as it arrives, before the
	// read completes.
	if !run(plain) {
		t.Fatal("plain mode never forwarded before a request was done")
	}
}

func TestTreetopReducesDRAMTraffic(t *testing.T) {
	base := testConfig()
	top := testConfig()
	top.TreetopLevels = 4

	run := func(cfg Config) uint64 {
		c := MustNew(cfg, nil)
		r := rng.NewXoshiro(17)
		now := int64(0)
		for i := 0; i < 100; i++ {
			out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
			now = out.Done + 1
		}
		return c.MemStats().Reads + c.MemStats().Writes
	}
	if b, t4 := run(base), run(top); t4 >= b {
		t.Fatalf("treetop-4 DRAM ops (%d) not below baseline (%d)", t4, b)
	}
}

func TestObserverSeesAllExternalOps(t *testing.T) {
	c := MustNew(testConfig(), nil)
	var reads, writes int
	c.SetObserver(func(e Event) {
		switch e.Kind {
		case EvPathRead:
			reads++
		case EvPathWrite:
			writes++
		}
	})
	r := rng.NewXoshiro(19)
	now := int64(0)
	for i := 0; i < 60; i++ {
		out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), false)
		now = out.Done + 1
	}
	st := c.Stats()
	if uint64(reads) != st.ORAMAccesses {
		t.Fatalf("observer reads = %d, stats = %d", reads, st.ORAMAccesses)
	}
	if uint64(writes) != st.EvictionPhases {
		t.Fatalf("observer writes = %d, eviction phases = %d", writes, st.EvictionPhases)
	}
}

func TestRequestPanicsOutsideDataSpace(t *testing.T) {
	c := MustNew(testConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-space address did not panic")
		}
	}()
	c.Request(0, uint32(c.NumDataBlocks()), false)
}

func BenchmarkTinyRequest(b *testing.B) {
	c := MustNew(testConfig(), nil)
	r := rng.NewXoshiro(23)
	n := uint64(c.NumDataBlocks())
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), false)
		now = out.Done + 1
	}
}
