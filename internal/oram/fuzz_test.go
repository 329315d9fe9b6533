package oram_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/crypt"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// FuzzFunctionalOps drives read, write and zero-write sequences through
// the functional Path engine behind the queue front end, as shadowd runs
// it (dynamic-3 duplication, two cores), on an L=5 tree over store.Mem and
// store.File, serial and with four channels and decoupled write-back,
// and checks every read against a map. The payload pool
// scribbles every buffer released to it, so a buffer still in use after
// its release reads back wrong. Each op is two bytes: the first picks the
// kind (bits 0-1: read, read, write, zero-write), the core (bit 2) and
// when the next op presents (bits 3-7, t): after all work issued so far
// when t is 0, else t-1 steps of 256 cycles later, so presentations
// overlap in-flight misses of the same block and some of several live
// misses retire before the next presentation; the second byte picks the
// address.
func FuzzFunctionalOps(f *testing.F) {
	f.Add([]byte{0x0a, 7, 0x08, 7, 0x0c, 7, 0x0a, 7, 0x04, 7, 0x03, 7, 0x00, 7})
	f.Add([]byte{0x02, 1, 0x02, 2, 0x02, 3, 0x01, 1, 0x01, 2, 0x01, 3, 0x03, 2, 0x00, 2})
	seed := make([]byte, 1200)
	x := uint32(12345)
	for i := range seed {
		x = x*1664525 + 1013904223
		seed[i] = byte(x >> 24)
	}
	f.Add(seed)

	variants := []struct {
		name string
		mut  func(*oram.Config)
	}{
		{"path", func(*oram.Config) {}},
		{"path-c4-wbd", func(c *oram.Config) { c.Channels, c.WBDecoupled = 4, true }},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000] // a thousand ops per engine keeps an input fast
		}
		defer oram.ScribbleFreed()()
		for _, v := range variants {
			for _, backend := range []string{"mem", "file"} {
				cfg := oram.Default()
				cfg.L = 5
				cfg.StashCapacity = 40 // shadows turn over
				cfg.Functional = true
				v.mut(&cfg)
				geo, err := tree.NewGeometry(cfg.L, cfg.Z)
				if err != nil {
					t.Fatal(err)
				}
				if backend == "mem" {
					cfg.Store = store.NewMem(geo.NumBuckets(), cfg.Z)
				} else if cfg.Store, err = store.NewFile(filepath.Join(t.TempDir(), "tree.dat"), geo.NumBuckets(), cfg.Z, crypt.NonceSize+cfg.BlockBytes); err != nil {
					t.Fatal(err)
				}
				name := v.name + "/" + backend
				if err := runFunctionalOps(cfg, ops); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cfg.Store.Close()
			}
		}
	})
}

// runFunctionalOps runs one op sequence on a fresh engine built from cfg.
func runFunctionalOps(cfg oram.Config, ops []byte) error {
	pol, err := core.NewUnbound(core.Dynamic(3))
	if err != nil {
		return err
	}
	eng, err := oram.NewEngine(oram.PathEngine, cfg, pol)
	if err != nil {
		return err
	}
	q := oram.NewQueue(eng, 2)
	keys := uint32(min(48, cfg.NumDataBlocks()))
	want := map[uint32][]byte{}
	var now, next int64
	for i := 0; i+1 < len(ops); i += 2 {
		op, addr, core := ops[i]&3, uint32(ops[i+1])%keys, int(ops[i]>>2&1)
		var out oram.Outcome
		switch op {
		case 0, 1:
			var got []byte
			got, out = q.Read(now, core, addr)
			exp := make([]byte, cfg.BlockBytes)
			copy(exp, want[addr])
			if !bytes.Equal(got, exp) {
				return fmt.Errorf("op %d: read of block %d = %x, want %x", i/2, addr, got, exp)
			}
		default:
			var val []byte
			if op == 2 {
				val = []byte(fmt.Sprintf("op%d-block%d", i/2, addr))
			}
			if out, err = q.Write(now, core, addr, val); err != nil {
				return err
			}
			want[addr] = val
		}
		next = max(next, out.Done+1)
		if t := int64(ops[i] >> 3); t == 0 {
			now = next
		} else {
			now += (t - 1) * 256
		}
	}
	eng.Drain()
	st := eng.Stats()
	if st.Anomalies != 0 || st.StashOverflows != 0 {
		return fmt.Errorf("%d anomalies, %d stash overflows", st.Anomalies, st.StashOverflows)
	}
	c := eng.(*oram.Controller)
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	return c.CheckWritebackInvariants()
}
