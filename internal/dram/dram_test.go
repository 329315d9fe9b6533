package dram

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := DDR3_1333().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{Channels: 1},
		{Channels: 1, BanksPerChannel: 8},
		{Channels: 1, BanksPerChannel: 8, RowBytes: 8192},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	// First access to a row: miss (activate).
	first := m.Read(0, 0)
	// Same row, later: hit.
	hit := m.Read(first, 64) - first
	// A different row in the same bank: precharge + activate.
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChannel)
	start := first + hit + 1000
	miss := m.Read(start, rowStride) - start
	if hit >= miss {
		t.Fatalf("row hit (%d) not faster than row miss (%d)", hit, miss)
	}
	if hit != cfg.TCL+cfg.TBURST {
		t.Fatalf("row hit latency = %d, want TCL+TBURST = %d", hit, cfg.TCL+cfg.TBURST)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 || st.Reads != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBankParallelism(t *testing.T) {
	cfg := DDR3_1333()
	// Two reads to different banks of one channel overlap their activates;
	// two reads to the same bank and different rows fully serialise.
	sameBankStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChannel)
	diffBankStride := uint64(cfg.RowBytes * cfg.Channels)

	mA := MustNew(cfg)
	mA.Read(0, 0)
	parallel := mA.Read(0, diffBankStride)

	mB := MustNew(cfg)
	mB.Read(0, 0)
	serial := mB.Read(0, sameBankStride)

	if parallel >= serial {
		t.Fatalf("different-bank access (%d) not faster than same-bank conflict (%d)", parallel, serial)
	}
}

func TestChannelParallelism(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	// Rows interleave across channels: consecutive rows use different buses.
	a := m.Read(0, 0)
	b := m.Read(0, uint64(cfg.RowBytes))
	if a != b {
		t.Fatalf("two-channel first accesses differ: %d vs %d", a, b)
	}
}

func TestBusSerialisesSameRowReads(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	first := m.Read(0, 0)
	second := m.Read(0, 64)
	if second < first+cfg.TBURST {
		t.Fatalf("burst overlap on one bus: first=%d second=%d", first, second)
	}
}

func TestXORModeSkipsBus(t *testing.T) {
	cfg := DDR3_1333()
	onBus := MustNew(cfg)
	offBus := MustNew(cfg)
	// Spread across the banks of one channel: the channel bus is then the
	// bottleneck, which is exactly what XOR compression removes.
	addrs := make([]uint64, 16)
	for i := range addrs {
		addrs[i] = uint64(i * cfg.RowBytes * cfg.Channels)
	}
	var lastOn, lastOff int64
	for _, a := range addrs {
		lastOn = onBus.Access(0, a, false, true)
		lastOff = offBus.Access(0, a, false, false)
	}
	if lastOff >= lastOn {
		t.Fatalf("off-bus batch (%d) not faster than on-bus (%d)", lastOff, lastOn)
	}
}

func TestReadBatchPerBlockTimes(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	addrs := []uint64{0, 64, 128, uint64(cfg.RowBytes)}
	done := make([]int64, len(addrs))
	finish := m.ReserveBatch(100, OpRead, addrs, done)
	var maxDone int64
	for i, d := range done {
		if d <= 100 {
			t.Fatalf("done[%d] = %d not after start", i, d)
		}
		if d > maxDone {
			maxDone = d
		}
	}
	if finish != maxDone {
		t.Fatalf("finish = %d, max(done) = %d", finish, maxDone)
	}
}

func TestWriteBatch(t *testing.T) {
	m := MustNew(DDR3_1333())
	finish := m.ReserveBatch(0, OpWrite, []uint64{0, 64, 128}, nil)
	if finish <= 0 {
		t.Fatalf("write batch finish = %d", finish)
	}
	if m.Stats().Writes != 3 {
		t.Fatalf("writes = %d", m.Stats().Writes)
	}
}

func TestAccessMonotonicInNow(t *testing.T) {
	cfg := DDR3_1333()
	f := func(addr uint64, gap uint16) bool {
		addr %= 1 << 30
		m1 := MustNew(cfg)
		m2 := MustNew(cfg)
		d1 := m1.Read(0, addr)
		d2 := m2.Read(int64(gap), addr)
		// Starting later can never finish earlier.
		return d2 >= d1 && d1 >= cfg.TCL+cfg.TBURST
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMapAddrCoversAllBanks(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	type cb struct{ c, b int }
	seen := make(map[cb]bool)
	for r := 0; r < cfg.Channels*cfg.BanksPerChannel; r++ {
		ch, bk, _ := m.mapAddr(uint64(r * cfg.RowBytes))
		seen[cb{ch, bk}] = true
	}
	if len(seen) != cfg.Channels*cfg.BanksPerChannel {
		t.Fatalf("consecutive rows cover %d bank slots, want %d", len(seen), cfg.Channels*cfg.BanksPerChannel)
	}
}

func BenchmarkPathRead(b *testing.B) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	addrs := make([]uint64, 95) // Z=5 x 19 levels
	for i := range addrs {
		addrs[i] = uint64(i) * 64 * 131
	}
	done := make([]int64, len(addrs))
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = m.ReserveBatch(now, OpRead, addrs, done)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := DDR3_1333()
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero channels accepted")
	}
	if m, err := New(DDR3_1333()); err != nil || m == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBatchLengthValidation(t *testing.T) {
	m := MustNew(DDR3_1333())
	addrs := []uint64{0, 64, 128}
	short := make([]int64, 2)
	for _, op := range []Op{OpRead, OpReadOffBus, OpWrite} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d: short done slice accepted", op)
				}
			}()
			m.ReserveBatch(0, op, addrs, short)
		}()
	}
}

// TestReserveBatchMatchesLegacyBatches: a batch reserves exactly what the
// pre-batch spelling did — one Access per address, all presented at the
// same cycle — plus, off-bus, the single burst that ships the XOR result.
func TestReserveBatchMatchesLegacyBatches(t *testing.T) {
	cfg := DDR3_1333()
	addrs := []uint64{0, 8192, 16384, 24576, 64}
	for _, op := range []Op{OpRead, OpWrite, OpReadOffBus} {
		a, b := MustNew(cfg), MustNew(cfg)
		doneA := make([]int64, len(addrs))
		doneB := make([]int64, len(addrs))
		var endA int64
		for i, addr := range addrs {
			doneA[i] = a.Access(7, addr, op == OpWrite, op != OpReadOffBus)
			endA = max(endA, doneA[i])
		}
		if op == OpReadOffBus {
			endA += cfg.TBURST
		}
		endB := b.ReserveBatch(7, op, addrs, doneB)
		if endA != endB {
			t.Fatalf("op %d: legacy end %d, ReserveBatch end %d", op, endA, endB)
		}
		for i := range doneA {
			if doneA[i] != doneB[i] {
				t.Fatalf("op %d: done[%d] %d vs %d", op, i, doneA[i], doneB[i])
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("op %d: stats diverge: %+v vs %+v", op, a.Stats(), b.Stats())
		}
	}
}

func TestEarliestStartQueries(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	if got := m.EarliestBatchStart(nil); got != 0 {
		t.Fatalf("empty batch earliest start = %d, want 0", got)
	}
	// Occupy bank (ch0, bk0) with a read; its readyAt moves, the bus too.
	m.Read(0, 0)
	if m.BankFreeAt(0) <= 0 {
		t.Fatal("accessed bank still reports free at 0")
	}
	if m.BusFreeAt(0) <= 0 {
		t.Fatal("used channel bus still reports free at 0")
	}
	// An address on an untouched bank is free immediately, so a batch
	// containing it can start at once even though bank 0 is reserved.
	untouched := uint64(cfg.RowBytes * cfg.Channels) // ch0, bank1
	if m.BankFreeAt(untouched) != 0 {
		t.Fatal("untouched bank not free")
	}
	if got := m.EarliestBatchStart([]uint64{0, untouched}); got != 0 {
		t.Fatalf("batch with a free bank reports earliest start %d, want 0", got)
	}
	if got := m.EarliestBatchStart([]uint64{0}); got != m.BankFreeAt(0) {
		t.Fatalf("single-bank batch earliest start %d, want bank ready %d", got, m.BankFreeAt(0))
	}
}

func TestLedgerAttribution(t *testing.T) {
	cfg := DDR3_1333()
	cfg.Channels = 1
	cfg.BanksPerChannel = 2
	m := MustNew(cfg)

	// Same-bank back-to-back reads: the second arrives one cycle in and
	// must wait for the first's activate + column slot.
	m.Read(0, 0)
	m.Read(1, 64)
	// A read to the other bank proceeds in parallel, but its data burst
	// finds the bus still draining the first read's burst.
	m.Read(1, uint64(cfg.RowBytes))

	led := m.Ledger()
	if len(led) != 1 || len(led[0].Banks) != 2 {
		t.Fatalf("ledger shape %d channels / %d banks, want 1/2", len(led), len(led[0].Banks))
	}
	b0 := led[0].Banks[0]
	if want := cfg.TRCD + cfg.TCCD - 1; b0.Stall != want {
		t.Fatalf("bank 0 stall = %d, want tRCD+tCCD-1 = %d", b0.Stall, want)
	}
	// Busy: the first access pays tRCD (activate) + tCCD, the second (row
	// hit) only its column slot.
	if want := cfg.TRCD + 2*cfg.TCCD; b0.Busy != want {
		t.Fatalf("bank 0 busy = %d, want %d", b0.Busy, want)
	}
	if led[0].BusBusy != 3*cfg.TBURST {
		t.Fatalf("bus busy = %d, want 3*tBURST = %d", led[0].BusBusy, 3*cfg.TBURST)
	}
	// Bank 1's activate starts at cycle 1, so its data is ready at
	// 1+tRCD+tCL while the bus frees after both bank-0 bursts at
	// tRCD+tCL+2*tBURST: a 2*tBURST-1 cycle wait.
	if want := 2*cfg.TBURST - 1; led[0].BusStall != want {
		t.Fatalf("bus stall = %d, want 2*tBURST-1 = %d", led[0].BusStall, want)
	}
	if led[0].Banks[1].Stall != 0 {
		t.Fatalf("bank 1 stalled %d cycles, want 0", led[0].Banks[1].Stall)
	}
}

func TestLedgerPureObservation(t *testing.T) {
	// The attribution counters must never feed back into timing: two
	// identical access sequences complete identically whether or not the
	// ledger is read in between.
	addrs := []uint64{0, 64, 8192 * 16, 128, 8192 * 32}
	a, b := MustNew(DDR3_1333()), MustNew(DDR3_1333())
	var da, db []int64
	for _, addr := range addrs {
		da = append(da, a.Read(0, addr))
		_ = a.Ledger()
		db = append(db, b.Read(0, addr))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("reading the ledger changed timing: access %d %d != %d", i, da[i], db[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("reading the ledger changed stats: %+v != %+v", a.Stats(), b.Stats())
	}
}

func TestLedgerOffBusReadsSkipBus(t *testing.T) {
	m := MustNew(DDR3_1333())
	done := make([]int64, 2)
	m.ReserveBatch(0, OpReadOffBus, []uint64{0, 64}, done)
	led := m.Ledger()
	for ch := range led {
		if led[ch].BusBusy != 0 || led[ch].BusStall != 0 {
			t.Fatalf("off-bus reads reserved bus cycles on channel %d: %+v", ch, led[ch])
		}
	}
}
