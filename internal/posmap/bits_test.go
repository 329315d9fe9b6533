package posmap

import (
	"bytes"
	"testing"
	"testing/quick"

	"shadowblock/internal/rng"
)

// TestBitArrayMatchesElementwise is the bit array's contract, for every
// width 1…24 and array lengths across several fill chunks: the chunked
// fill writes the same bytes as one set per value, the bulk read returns
// what get does, and a set at a random index — the first and the last,
// whose 64-bit access reaches into the padding, always among them —
// round-trips while both neighbours and the padding keep their bits.
func TestBitArrayMatchesElementwise(t *testing.T) {
	for w := uint(1); w <= 24; w++ {
		if err := quick.Check(func(seed uint64, length uint16, idx []uint16) bool {
			return bitArrayMatches(t, w, int(length)%(3*fillChunk)+1, seed, idx)
		}, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
	}
}

// bitArrayMatches checks one array of n w-bit values drawn from seed, then
// sets a value at each index of idx.
func bitArrayMatches(t *testing.T, w uint, n int, seed uint64, idx []uint16) bool {
	r := rng.NewXoshiro(seed)

	want := make([]uint32, 0, n)
	a := newBitArray(n, w)
	a.fill(func(dst []uint32) {
		r.FillTopBits(dst, w)
		want = append(want, dst...)
	})
	b := newBitArray(n, w)
	for i, v := range want {
		b.set(uint32(i), v)
	}
	if !bytes.Equal(a.buf, b.buf) {
		t.Logf("w=%d n=%d: fill and element-wise set wrote different bytes", w, n)
		return false
	}
	start := int(r.Uint64n(uint64(n)))
	got := make([]uint32, n-start)
	a.read(uint32(start), got)
	for i, v := range got {
		if v != a.get(uint32(start+i)) || v != want[start+i] {
			t.Logf("w=%d n=%d: read from %d gives %d at %d, get %d, want %d",
				w, n, start, v, start+i, a.get(uint32(start+i)), want[start+i])
			return false
		}
	}

	for _, raw := range append(idx, 0, uint16(n-1)) {
		i := int(raw) % n
		v := uint32(r.Uint64n(1 << w))
		a.set(uint32(i), v)
		want[i] = v
		for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
			if a.get(uint32(j)) != want[j] {
				t.Logf("w=%d n=%d: set(%d, %d) left value %d = %d, want %d", w, n, i, v, j, a.get(uint32(j)), want[j])
				return false
			}
		}
	}
	for _, p := range a.buf[(n*int(w)+7)/8:] {
		if p != 0 {
			t.Logf("w=%d n=%d: padding written: %v", w, n, a.buf[(n*int(w)+7)/8:])
			return false
		}
	}
	return true
}

// TestBitArrayWidthZero: a one-leaf tree's labels take no bits at all and
// read back as leaf 0.
func TestBitArrayWidthZero(t *testing.T) {
	s := NewStore(direct(100), 1, rng.NewXoshiro(1))
	s.SetLabel(99, 0)
	if s.Label(0) != 0 || s.Label(99) != 0 || len(s.labels.buf) != 8 {
		t.Fatalf("width-0 store: labels %d %d, %d bytes", s.Label(0), s.Label(99), len(s.labels.buf))
	}
}

// TestStoreIsLBitsPerLabel: the array holds ⌈L·N/8⌉ bytes plus the eight
// of padding.
func TestStoreIsLBitsPerLabel(t *testing.T) {
	h, _ := NewHierarchy(1<<12, 16, 64)
	s := NewStore(h, 1<<18, rng.NewXoshiro(1))
	if got, want := len(s.labels.buf), (18*h.TotalBlocks()+7)/8+8; got != want {
		t.Fatalf("%d labels of 18 bits take %d bytes, want %d", h.TotalBlocks(), got, want)
	}
}

// TestSetLabelRejectsWideLabel: a label of 2^L or more is a bug upstream,
// and storing its low L bits would silently move the block.
func TestSetLabelRejectsWideLabel(t *testing.T) {
	for _, leaves := range []uint32{1, 2, 1 << 10, 1 << 24} {
		s := NewStore(direct(64), leaves, rng.NewXoshiro(2))
		s.SetLabel(63, leaves-1)
		if s.Label(63) != leaves-1 {
			t.Fatalf("%d leaves: largest label read back as %d", leaves, s.Label(63))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d leaves: SetLabel(%d) accepted", leaves, leaves)
				}
			}()
			s.SetLabel(63, leaves)
		}()
	}
}

// TestStoreRejectsIndexPastEnd: the padding makes the access past the last
// label addressable, so the range check is what keeps it out.
func TestStoreRejectsIndexPastEnd(t *testing.T) {
	s := NewStore(direct(64), 1<<10, rng.NewXoshiro(3))
	for name, call := range map[string]func(){
		"Label":    func() { s.Label(64) },
		"SetLabel": func() { s.SetLabel(64, 0) },
		"Labels":   func() { s.Labels(60, make([]uint32, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the last label did not panic", name)
				}
			}()
			call()
		}()
	}
}
