package dram

import "testing"

// TestChannelOfMatchesInterleaving checks the public channel query against
// the documented rowIdx-mod-channels interleaving.
func TestChannelOfMatchesInterleaving(t *testing.T) {
	cfg := DDR3_1333()
	cfg.Channels = 4
	m := MustNew(cfg)
	if m.NumChannels() != 4 {
		t.Fatalf("NumChannels = %d, want 4", m.NumChannels())
	}
	for row := 0; row < 64; row++ {
		addr := uint64(row) * uint64(cfg.RowBytes)
		want := row % cfg.Channels
		if got := m.ChannelOf(addr); got != want {
			t.Fatalf("ChannelOf(row %d) = %d, want %d", row, got, want)
		}
		// Offsets within a row stay on the row's channel.
		if got := m.ChannelOf(addr + uint64(cfg.RowBytes) - 1); got != want {
			t.Fatalf("ChannelOf(end of row %d) = %d, want %d", row, got, want)
		}
	}
}

// TestChannelBusyAndBacklog checks the per-channel accounting: each on-bus
// access reserves exactly one burst of bus occupancy on its own channel, and
// backlog reports the remaining reservation from a given cycle.
func TestChannelBusyAndBacklog(t *testing.T) {
	cfg := DDR3_1333()
	cfg.Channels = 2
	m := MustNew(cfg)

	done := m.Read(0, 0) // row 0 -> channel 0
	if got := m.ChannelBusy(0); got != cfg.TBURST {
		t.Fatalf("ChannelBusy(0) = %d, want one burst (%d)", got, cfg.TBURST)
	}
	if got := m.ChannelBusy(1); got != 0 {
		t.Fatalf("ChannelBusy(1) = %d, want 0", got)
	}
	if got := m.ChannelBacklog(0, 0); got != done {
		t.Fatalf("ChannelBacklog(0, 0) = %d, want %d (bus frees at the read's completion)", got, done)
	}
	if got := m.ChannelBacklog(0, done); got != 0 {
		t.Fatalf("ChannelBacklog(0, done) = %d, want 0", got)
	}
	if got := m.ChannelBacklog(1, 0); got != 0 {
		t.Fatalf("ChannelBacklog(1, 0) = %d, want 0", got)
	}

	// An off-bus (XOR) access must not reserve bus occupancy.
	m.Access(0, uint64(cfg.RowBytes), false, false) // row 1 -> channel 1
	if got := m.ChannelBusy(1); got != 0 {
		t.Fatalf("ChannelBusy(1) after off-bus access = %d, want 0", got)
	}
}

// TestChannelSubBatchesMatchInterleavedBatch is the timing argument the
// ORAM engine's flat dispatch rests on: issuing the whole interleaved batch
// at once reserves exactly the same per-block completion times as one
// sub-batch per channel at a common cycle would, because channels share no
// banks and no bus and each sub-batch preserves its addresses' order. So
// the engine never needs to split a path per channel.
func TestChannelSubBatchesMatchInterleavedBatch(t *testing.T) {
	cfg := DDR3_1333()
	cfg.Channels = 4
	whole := MustNew(cfg)
	split := MustNew(cfg)

	var addrs []uint64
	for i := 0; i < 40; i++ {
		addrs = append(addrs, uint64(i*3%13)*uint64(cfg.RowBytes)+uint64(i%5)*64)
	}
	wholeDone := make([]int64, len(addrs))
	wholeEnd := whole.ReserveBatch(100, OpRead, addrs, wholeDone)

	splitDone := make([]int64, len(addrs))
	var splitEnd int64
	for ch := 0; ch < cfg.Channels; ch++ {
		var sub []uint64
		var idx []int
		for i, a := range addrs {
			if split.ChannelOf(a) == ch {
				sub = append(sub, a)
				idx = append(idx, i)
			}
		}
		if len(sub) == 0 {
			continue
		}
		done := make([]int64, len(sub))
		end := split.ReserveBatch(100, OpRead, sub, done)
		for j, i := range idx {
			splitDone[i] = done[j]
		}
		if end > splitEnd {
			splitEnd = end
		}
	}

	if splitEnd != wholeEnd {
		t.Fatalf("batch end: split %d, whole %d", splitEnd, wholeEnd)
	}
	for i := range addrs {
		if splitDone[i] != wholeDone[i] {
			t.Fatalf("block %d: split done %d, whole done %d", i, splitDone[i], wholeDone[i])
		}
	}
	if whole.Stats() != split.Stats() {
		t.Fatalf("stats diverged: whole %+v, split %+v", whole.Stats(), split.Stats())
	}
}
