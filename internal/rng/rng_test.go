package rng

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSplitMixDeterministic(t *testing.T) {
	a, b := NewSplitMix64(7), NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewSplitMix64(8)
	if NewSplitMix64(7).Next() == c.Next() {
		t.Fatal("different seeds produced the same first value")
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro(7), NewXoshiro(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestUint64nRange(t *testing.T) {
	x := NewXoshiro(3)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := x.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro(1).Uint64n(0)
}

func TestUint64nRoughlyUniform(t *testing.T) {
	x := NewXoshiro(11)
	const n, buckets, samples = 64, 8, 64000
	var hist [buckets]int
	for i := 0; i < samples; i++ {
		hist[x.Uint64n(n)*buckets/n]++
	}
	for i, h := range hist {
		if h < samples/buckets*8/10 || h > samples/buckets*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, h, samples/buckets)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro(5)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f outside [0,1)", v)
		}
	}
}

func TestIntn(t *testing.T) {
	x := NewXoshiro(9)
	for i := 0; i < 1000; i++ {
		if v := x.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

// TestFillTopBitsMatchesUint64n: the bulk fill draws exactly what
// Uint64n(2^k) would, draw for draw, and leaves the stream where 10^5
// Uint64n calls would.
func TestFillTopBitsMatchesUint64n(t *testing.T) {
	const draws = 100000
	dst := make([]uint32, draws)
	for _, k := range []uint{4, 12, 18, 24} {
		for _, seed := range []uint64{1, 0xc2b2ae35 + 3, 1<<63 + 17} {
			x, ref := NewXoshiro(seed), NewXoshiro(seed)
			x.FillTopBits(dst, k)
			for i, got := range dst {
				if want := ref.Uint64n(1 << k); uint64(got) != want {
					t.Fatalf("k=%d seed=%d draw %d: %d, want %d", k, seed, i, got, want)
				}
			}
			if x.Next() != ref.Next() {
				t.Fatalf("k=%d seed=%d: streams diverge after the fill", k, seed)
			}
		}
	}
}

// mul64 is the hand-rolled 128-bit product Uint64n used before it called
// bits.Mul64: the oracle the tests below hold the library call to.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

func TestMul64MatchesHandRolled(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := bits.Mul64(a, b)
		wantHi, wantLo := mul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{0, 1, 1<<32 - 1, 1 << 32, ^uint64(0)} {
		if !f(a, ^uint64(0)) || !f(a, a) {
			t.Fatalf("products with %#x differ", a)
		}
	}
}

// TestUint64nStreamUnchanged replays Uint64n over the hand-rolled product
// beside the real one: every draw, rejections included, must agree.
func TestUint64nStreamUnchanged(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 1000, 1 << 18, 1<<24 + 1, 1<<63 + 5, ^uint64(0)} {
		x, ref := NewXoshiro(n), NewXoshiro(n)
		for i := 0; i < 5000; i++ {
			var want uint64
			for {
				hi, lo := mul64(ref.Next(), n)
				if lo >= n || lo >= (-n)%n {
					want = hi
					break
				}
			}
			if got := x.Uint64n(n); got != want {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, got, want)
			}
		}
	}
}
