package dram

import (
	"testing"

	"shadowblock/internal/rng"
)

// refMapAddr is the decode written with plain division, the arithmetic
// mapAddr's precomputed reciprocals must reproduce.
func refMapAddr(cfg Config, addr uint64) (ch, bk int, row int64) {
	rowIdx := addr / uint64(cfg.RowBytes)
	ch = int(rowIdx % uint64(cfg.Channels))
	rest := rowIdx / uint64(cfg.Channels)
	bk = int(rest % uint64(cfg.BanksPerChannel))
	row = int64(rest / uint64(cfg.BanksPerChannel))
	return ch, bk, row
}

// TestMapAddrMatchesDivision pins the division-free decode to the
// reference for random addresses over the whole decodable range, its
// edges, and every channel count a scheme can name: the shipped powers of
// two and non-powers of two, which Validate accepts, alike.
func TestMapAddrMatchesDivision(t *testing.T) {
	channels := []int{1, 2, 3, 4, 5, 7, 16, 48, 63, 64}
	banks := []int{1, 3, 8, 12}
	r := rng.NewXoshiro(5)
	for _, nch := range channels {
		for _, nbk := range banks {
			cfg := DDR3_1333()
			cfg.Channels, cfg.BanksPerChannel = nch, nbk
			m := MustNew(cfg)
			limit := uint64(maxRows) * uint64(cfg.RowBytes)
			addrs := []uint64{0, uint64(cfg.RowBytes) - 1, uint64(cfg.RowBytes), limit - 1}
			for i := 0; i < 20000; i++ {
				addrs = append(addrs, r.Uint64n(limit))
			}
			for i := 0; i < 2000; i++ { // the low rows a tree actually occupies
				addrs = append(addrs, r.Uint64n(1<<36))
			}
			for _, a := range addrs {
				ch, bk, row := m.mapAddr(a)
				wch, wbk, wrow := refMapAddr(cfg, a)
				if ch != wch || bk != wbk || row != wrow {
					t.Fatalf("channels=%d banks=%d addr=%#x: decode (%d,%d,%d), want (%d,%d,%d)",
						nch, nbk, a, ch, bk, row, wch, wbk, wrow)
				}
			}
		}
	}
}

func TestMapAddrRejectsAddressBeyondRange(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("address past the decodable rows was decoded")
		}
	}()
	m.mapAddr(uint64(maxRows) * uint64(cfg.RowBytes))
}

func TestValidateRejectsUndecodableGeometry(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.RowBytes = 6000 },
		func(c *Config) { c.Channels = maxInterleave + 1 },
		func(c *Config) { c.BanksPerChannel = maxInterleave + 1 },
	} {
		cfg := DDR3_1333()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}
