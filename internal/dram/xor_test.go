package dram

import "testing"

func TestOffBusBatchFasterAcrossBanks(t *testing.T) {
	cfg := DDR3_1333()
	// One channel's worth of bank-spread reads: the bus binds the on-bus
	// batch, not the off-bus one.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*cfg.RowBytes*cfg.Channels))
	}
	done := make([]int64, len(addrs))
	on := MustNew(cfg).ReserveBatch(0, OpRead, addrs, done)
	off := MustNew(cfg).ReserveBatch(0, OpReadOffBus, addrs, done)
	if off >= on {
		t.Fatalf("off-bus batch (%d) not faster than on-bus (%d)", off, on)
	}
}

func TestOffBusBatchShipsOneBurst(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	addrs := []uint64{0}
	done := make([]int64, 1)
	fin := m.ReserveBatch(0, OpReadOffBus, addrs, done)
	if fin != done[0]+cfg.TBURST {
		t.Fatalf("finish %d != last block %d + one burst %d", fin, done[0], cfg.TBURST)
	}
}
