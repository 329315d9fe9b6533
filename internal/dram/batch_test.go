package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"shadowblock/internal/tree"
)

// reserveBlockByBlock is the reference ReserveBatch: one Access per
// address, in order, all presented at now, plus the burst that ships an
// off-bus batch's XOR result.
func reserveBlockByBlock(m *Memory, now int64, op Op, addrs []uint64, done []int64) int64 {
	var finish int64
	for i, a := range addrs {
		d := m.Access(now, a, op == OpWrite, op != OpReadOffBus)
		if done != nil {
			done[i] = d
		}
		finish = max(finish, d)
	}
	if op == OpReadOffBus {
		finish += m.cfg.TBURST
	}
	return finish
}

// randomBatch draws a batch as runs of blocks that share a row: run
// lengths that need not be multiples of a bucket (so a run can end
// mid-bucket), offsets in any order within the row, and rows drawn from a
// small set so later runs revisit open rows, conflict on a bank, or repeat
// the previous run's row after another.
func randomBatch(r *rand.Rand, cfg Config) []uint64 {
	perRow := cfg.RowBytes / 64
	var addrs []uint64
	for runs := 1 + r.Intn(8); runs > 0; runs-- {
		row := uint64(r.Intn(4 * cfg.Channels * cfg.BanksPerChannel))
		for n := 1 + r.Intn(9); n > 0; n-- {
			addrs = append(addrs, row*uint64(cfg.RowBytes)+uint64(r.Intn(perRow))*64)
		}
	}
	return addrs
}

// TestReserveBatchMatchesPerBlock: reserving a batch run by run gives
// exactly what reserving it block by block gives — every completion
// cycle, the batch's return value, the counters, the per-bank and per-bus
// attribution, and the state later batches see — for reads, off-bus reads
// and writes, on one channel and on four, presented before and after the
// banks they need are ready.
func TestReserveBatchMatchesPerBlock(t *testing.T) {
	for _, channels := range []int{1, 4} {
		cfg := DDR3_1333()
		cfg.Channels = channels
		got, want := MustNew(cfg), MustNew(cfg)
		r := rand.New(rand.NewSource(int64(channels)))
		var now, early, late int64
		for i := 0; i < 3000; i++ {
			op := []Op{OpRead, OpReadOffBus, OpWrite}[r.Intn(3)]
			addrs := randomBatch(r, cfg)
			// Half the batches present while the banks are still busy with
			// the last one, half after a gap.
			if r.Intn(2) == 0 {
				now -= int64(r.Intn(400))
			} else {
				now += int64(r.Intn(400))
			}
			now = max(now, 0)
			if now < want.BankFreeAt(addrs[0]) {
				early++
			} else {
				late++
			}
			var doneGot, doneWant []int64
			if r.Intn(8) != 0 { // sometimes no per-block completions at all
				doneGot, doneWant = make([]int64, len(addrs)), make([]int64, len(addrs))
			}
			endGot := got.ReserveBatch(now, op, addrs, doneGot)
			endWant := reserveBlockByBlock(want, now, op, addrs, doneWant)
			if endGot != endWant || !reflect.DeepEqual(doneGot, doneWant) {
				t.Fatalf("%d channels, batch %d (op %d, %v at %d): end %d done %v, per block end %d done %v",
					channels, i, op, addrs, now, endGot, doneGot, endWant, doneWant)
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%d channels, batch %d: stats %+v, per block %+v", channels, i, got.Stats(), want.Stats())
			}
			if !reflect.DeepEqual(got.Ledger(), want.Ledger()) {
				t.Fatalf("%d channels, batch %d: ledgers differ", channels, i)
			}
			for _, a := range addrs {
				if got.BankFreeAt(a) != want.BankFreeAt(a) || got.BusFreeAt(a) != want.BusFreeAt(a) {
					t.Fatalf("%d channels, batch %d: bank or bus state of %#x differs", channels, i, a)
				}
			}
			now = endWant
		}
		if early < 100 || late < 100 {
			t.Fatalf("%d channels: %d batches presented before bank-ready, %d after; want both >= 100", channels, early, late)
		}
	}
}

// TestReserveBatchNeedsNoIssueArbitration pins the invariant the ORAM
// memory port rests on when it presents every path read at once: a batch
// reserved at now and the same batch reserved at max(now, the earliest
// ready time of its banks) get the same completion cycles, the same return
// value and leave the same bank, bus and row state behind. Only the banks'
// stall counters may differ. Two memories see the same random history of
// path-shaped reads and write-backs (a read often presented while the last
// write-back still drains, as the pipelined engine presents it), for
// reads, off-bus reads and writes, on one channel and on four.
func TestReserveBatchNeedsNoIssueArbitration(t *testing.T) {
	geo, err := tree.NewGeometry(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{1, 4} {
		cfg := DDR3_1333()
		cfg.Channels = channels
		layout := tree.NewLayout(geo, 64, cfg.RowBytes)
		if channels > 1 {
			if layout, err = tree.NewChannelLayout(geo, 64, cfg.RowBytes, channels); err != nil {
				t.Fatal(err)
			}
		}
		atNow, arbitrated := MustNew(cfg), MustNew(cfg)
		// One address per (channel, bank): rows are interleaved across
		// channels first and banks second.
		var banks []uint64
		for row := 0; row < channels*cfg.BanksPerChannel; row++ {
			banks = append(banks, uint64(row*cfg.RowBytes))
		}
		r := rand.New(rand.NewSource(int64(channels)))
		path := make([]int, geo.Levels())
		var now, waited int64
		var leaf uint32
		for i := 0; i < 4000; i++ {
			op := []Op{OpRead, OpReadOffBus, OpWrite}[r.Intn(3)]
			// A third of the batches revisit the last path, as an
			// eviction's write-back follows its read.
			if r.Intn(3) != 0 {
				leaf = uint32(r.Int63n(int64(geo.NumLeaves())))
			}
			var addrs []uint64
			// An on-chip treetop drops the path's top levels.
			for _, bucket := range geo.Path(leaf, path)[r.Intn(4):] {
				addrs = layout.AppendSlotAddrs(addrs, bucket)
			}
			earliest := atNow.BankFreeAt(addrs[0])
			for _, a := range addrs[1:] {
				earliest = min(earliest, atNow.BankFreeAt(a))
			}
			if now < earliest {
				waited++
			}
			doneNow, doneArb := make([]int64, len(addrs)), make([]int64, len(addrs))
			end := atNow.ReserveBatch(now, op, addrs, doneNow)
			endArb := arbitrated.ReserveBatch(max(now, earliest), op, addrs, doneArb)
			if end != endArb || !reflect.DeepEqual(doneNow, doneArb) {
				t.Fatalf("%d channels, batch %d (op %d at %d, banks ready from %d): end %d done %v, arbitrated end %d done %v",
					channels, i, op, now, earliest, end, doneNow, endArb, doneArb)
			}
			if atNow.Stats() != arbitrated.Stats() {
				t.Fatalf("%d channels, batch %d: stats %+v, arbitrated %+v", channels, i, atNow.Stats(), arbitrated.Stats())
			}
			for _, a := range banks {
				if atNow.BankFreeAt(a) != arbitrated.BankFreeAt(a) || atNow.BusFreeAt(a) != arbitrated.BusFreeAt(a) {
					t.Fatalf("%d channels, batch %d: bank or bus state of %#x differs", channels, i, a)
				}
			}
			// The next batch presents in the same cycle, before this one
			// ends (a pipelined read behind a draining write-back), at its
			// end, or after a gap.
			switch r.Intn(4) {
			case 0:
			case 1:
				now = end - int64(r.Intn(int(end-now)+1))
			case 2:
				now = end
			default:
				now = end + int64(r.Intn(400))
			}
		}
		for ch, cl := range atNow.Ledger() {
			al := arbitrated.Ledger()[ch]
			if cl.BusBusy != al.BusBusy || cl.BusStall != al.BusStall {
				t.Fatalf("%d channels: channel %d bus ledger %+v, arbitrated %+v", channels, ch, cl, al)
			}
			for bk := range cl.Banks {
				if cl.Banks[bk].Busy != al.Banks[bk].Busy || cl.Banks[bk].Stall < al.Banks[bk].Stall {
					t.Fatalf("%d channels: bank %d/%d ledger %+v, arbitrated %+v", channels, ch, bk, cl.Banks[bk], al.Banks[bk])
				}
			}
		}
		t.Logf("%d channels: %d of 4000 batches presented before their first bank was ready", channels, waited)
		if waited < 200 {
			t.Fatalf("%d channels: only %d batches presented before their first bank was ready; want >= 200", channels, waited)
		}
	}
}

// BenchmarkPathReadRows reserves path reads shaped like the engine's: the
// Z=5 slots of each bucket of a random L=18 path in the subtree layout,
// whose buckets share a row per subtree band (BenchmarkPathRead strides
// every block onto a row of its own).
func BenchmarkPathReadRows(b *testing.B) {
	cfg := DDR3_1333()
	geo, err := tree.NewGeometry(18, 5)
	if err != nil {
		b.Fatal(err)
	}
	layout := tree.NewLayout(geo, 64, cfg.RowBytes)
	r := rand.New(rand.NewSource(1))
	batches := make([][]uint64, 64)
	path := make([]int, geo.Levels())
	for i := range batches {
		for _, bucket := range geo.Path(uint32(r.Int63n(int64(geo.NumLeaves()))), path) {
			batches[i] = layout.AppendSlotAddrs(batches[i], bucket)
		}
	}
	m := MustNew(cfg)
	done := make([]int64, geo.PathLen())
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = m.ReserveBatch(now, OpRead, batches[i%len(batches)], done)
	}
}
