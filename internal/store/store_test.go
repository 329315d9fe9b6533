package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// backends builds one of each implementation over the same geometry.
func backends(t *testing.T, buckets, slots, payload int) map[string]Backend {
	t.Helper()
	fb, err := NewFile(filepath.Join(t.TempDir(), "tree.dat"), buckets, slots, payload)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"mem":    NewMem(buckets, slots),
		"file":   fb,
		"remote": NewLatency(NewMem(buckets, slots), 10*time.Microsecond),
	}
}

func TestBackendRoundTrip(t *testing.T) {
	const buckets, slots, payload = 7, 4, 80
	for name, b := range backends(t, buckets, slots, payload) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()

			// Empty buckets read as all-nil slots.
			got, err := b.ReadBucket(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != slots {
				t.Fatalf("empty bucket has %d slots, want %d", len(got), slots)
			}
			for s, p := range got {
				if p != nil {
					t.Fatalf("empty bucket slot %d non-nil", s)
				}
			}

			// Distinct contents per bucket survive interleaved writes,
			// including nil slots, empty payloads, and bytes ending in 0x00.
			want := make([][][]byte, buckets)
			for bk := 0; bk < buckets; bk++ {
				w := make([][]byte, slots)
				for s := 0; s < slots; s++ {
					switch s % 3 {
					case 0:
						w[s] = append(bytes.Repeat([]byte{byte(bk)}, payload-2), 0, 0)
					case 1:
						w[s] = []byte(fmt.Sprintf("b%d-s%d", bk, s))
					default:
						w[s] = nil
					}
				}
				want[bk] = w
				if err := b.WriteBucket(bk, w); err != nil {
					t.Fatal(err)
				}
			}
			for bk := 0; bk < buckets; bk++ {
				got, err := b.ReadBucket(bk)
				if err != nil {
					t.Fatal(err)
				}
				for s := range got {
					if !bytes.Equal(got[s], want[bk][s]) {
						t.Fatalf("bucket %d slot %d = %q, want %q", bk, s, got[s], want[bk][s])
					}
				}
			}
		})
	}
}

// TestBackendReadModifyWrite exercises the slot-update pattern the contract
// allows: read a bucket, replace slots in the returned views (here with a
// longer payload and a nil), write it back.
func TestBackendReadModifyWrite(t *testing.T) {
	const buckets, slots, payload = 3, 5, 32
	for name, b := range backends(t, buckets, slots, payload) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			init := make([][]byte, slots)
			for s := range init {
				init[s] = []byte(fmt.Sprintf("slot-%d", s))
			}
			if err := b.WriteBucket(1, init); err != nil {
				t.Fatal(err)
			}
			cur, err := b.ReadBucket(1)
			if err != nil {
				t.Fatal(err)
			}
			cur[2] = []byte("replaced")
			cur[3] = nil
			if err := b.WriteBucket(1, cur); err != nil {
				t.Fatal(err)
			}
			got, err := b.ReadBucket(1)
			if err != nil {
				t.Fatal(err)
			}
			for s, want := range [][]byte{[]byte("slot-0"), []byte("slot-1"), []byte("replaced"), nil, []byte("slot-4")} {
				if !bytes.Equal(got[s], want) {
					t.Fatalf("slot %d = %q, want %q", s, got[s], want)
				}
			}
		})
	}
}

// TestBackendCopiesOnWrite pins the seam's one ownership rule: WriteBucket
// copies, so the caller may scribble over its buffers at once, and a
// ReadBucket result handed straight back to WriteBucket (what the
// benchmark's store probe does) leaves the bucket as it was.
func TestBackendCopiesOnWrite(t *testing.T) {
	const buckets, slots, payload = 3, 4, 24
	for name, b := range backends(t, buckets, slots, payload) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			want := make([][][]byte, buckets)
			staged := make([][]byte, slots) // one set of buffers for every write
			for s := range staged {
				staged[s] = make([]byte, payload)
			}
			for bk := range want {
				want[bk] = make([][]byte, slots)
				for s := range staged {
					for i := range staged[s] {
						staged[s][i] = byte(bk*slots + s + i)
					}
					want[bk][s] = bytes.Clone(staged[s])
				}
				if err := b.WriteBucket(bk, staged); err != nil {
					t.Fatal(err)
				}
				for s := range staged {
					clear(staged[s])
				}
			}
			for round := 0; round < 2; round++ {
				for bk := range want {
					got, err := b.ReadBucket(bk)
					if err != nil {
						t.Fatal(err)
					}
					for s := range got {
						if !bytes.Equal(got[s], want[bk][s]) {
							t.Fatalf("round %d bucket %d slot %d = %x, want %x", round, bk, s, got[s], want[bk][s])
						}
					}
					if err := b.WriteBucket(bk, got); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func TestBackendBoundsChecked(t *testing.T) {
	for name, b := range backends(t, 2, 3, 16) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if _, err := b.ReadBucket(-1); err == nil {
				t.Fatal("negative bucket accepted")
			}
			if _, err := b.ReadBucket(2); err == nil {
				t.Fatal("out-of-range bucket accepted")
			}
			if err := b.WriteBucket(0, make([][]byte, 1)); err == nil {
				t.Fatal("short slot slice accepted")
			}
			if err := b.WriteBucket(5, make([][]byte, 3)); err == nil {
				t.Fatal("out-of-range bucket write accepted")
			}
		})
	}
}

func TestFileRejectsOversizePayload(t *testing.T) {
	fb, err := NewFile(filepath.Join(t.TempDir(), "t.dat"), 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if err := fb.WriteBucket(0, [][]byte{bytes.Repeat([]byte{1}, 9), nil}); err == nil {
		t.Fatal("payload larger than the record accepted")
	}
}

// fileGeometry is one File-vs-Mem comparison's tree: bucket count (not
// necessarily a full tree), slots per bucket and payload capacity.
type fileGeometry struct{ buckets, slots, payload int }

// randomOpGeometries are TestFileMatchesMemUnderRandomOps's trees, also
// FuzzStoreFile's seed corpus: full trees of 1 to 11 levels at small and
// large buckets, so both tiers and bands of several heights are covered,
// plus partial trees.
func randomOpGeometries() []fileGeometry {
	var geos []fileGeometry
	for l := 0; l <= 10; l++ {
		geos = append(geos, fileGeometry{1<<(l+1) - 1, 1 + l%5, 16}, fileGeometry{1<<(l+1) - 1, 5, 300})
	}
	return append(geos, fileGeometry{2, 3, 16}, fileGeometry{5, 2, 80}, fileGeometry{5, 5, 300})
}

// opSource makes a File-vs-Mem run's choices: the next one below n, and
// payload bytes. *rand.Rand is one.
type opSource interface {
	Intn(n int) int
	Read(p []byte) (int, error)
}

// byteSource decodes choices from a fuzz input, one byte each (two for
// n > 256), and reads as zeros once the input is spent.
type byteSource struct{ data []byte }

func (b *byteSource) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v
}

func (b *byteSource) Intn(n int) int {
	v := b.next()
	if n > 256 {
		v = v<<8 | b.next()
	}
	return v % n
}

func (b *byteSource) Read(p []byte) (int, error) {
	n := copy(p, b.data)
	b.data = b.data[n:]
	clear(p[n:])
	return len(p), nil
}

// matchFileAndMem drives File and Mem through the same ops: path reads,
// path writes cut off at a chosen level (inside the resident top or
// part-way down the bottom band), single-bucket writes, and read results
// handed back to WriteBucket with a slot replaced, every choice taken from
// src: every read must agree, and after Close the file must hold exactly
// Mem's contents at the two-tier layout's offsets, every other record
// still absent.
func matchFileAndMem(t *testing.T, g fileGeometry, src opSource, ops int) {
	t.Helper()
	name := filepath.Join(t.TempDir(), "tree.dat")
	fb, err := NewFile(name, g.buckets, g.slots, g.payload)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem(g.buckets, g.slots)
	payload := func() []byte {
		if src.Intn(4) == 0 {
			return nil
		}
		p := make([]byte, src.Intn(g.payload+1))
		src.Read(p)
		return p
	}
	write := func(bucket int) {
		slots := make([][]byte, g.slots)
		for s := range slots {
			slots[s] = payload()
		}
		for _, b := range []Backend{fb, mem} {
			if err := b.WriteBucket(bucket, slots); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(bucket int) {
		want, err := mem.ReadBucket(bucket)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fb.ReadBucket(bucket)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want {
			if !bytes.Equal(got[s], want[s]) || (got[s] == nil) != (want[s] == nil) {
				t.Fatalf("bucket %d slot %d = %x, want %x", bucket, s, got[s], want[s])
			}
		}
	}
	// path returns the buckets from the root to a chosen leaf that exist
	// in a tree of g.buckets buckets.
	path := func() []int {
		var p []int
		for b := 0; b < g.buckets; b = 2*b + 1 + src.Intn(2) {
			p = append(p, b)
		}
		return p
	}
	for op := 0; op < ops; op++ {
		switch src.Intn(5) {
		case 0: // path read
			for _, b := range path() {
				read(b)
			}
		case 1: // path read, then a write of its first levels (often not reaching the leaf)
			p := path()
			for _, b := range p {
				read(b)
			}
			for _, b := range p[:1+src.Intn(len(p))] {
				write(b)
			}
		case 2: // a lone write anywhere
			write(src.Intn(g.buckets))
		case 3: // read-modify-write through the returned views
			b := src.Intn(g.buckets)
			s := src.Intn(g.slots)
			v := payload()
			for _, be := range []Backend{fb, mem} {
				cur, err := be.ReadBucket(b)
				if err != nil {
					t.Fatal(err)
				}
				cur[s] = v
				if err := be.WriteBucket(b, cur); err != nil {
					t.Fatal(err)
				}
			}
		default:
			read(src.Intn(g.buckets))
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// The expected image: absent records everywhere, then every bucket's
	// records at its place in the two-tier layout — the levels above the
	// deepest fb.h in heap order, then one subtree per bucket fb.h levels
	// above the leaves, each in local heap order.
	rb := 4 + g.payload
	bb := g.slots * rb
	levels := bits.Len(uint(g.buckets))
	base := levels - fb.h
	var order []int
	for b := 0; b < 1<<base-1; b++ {
		order = append(order, b)
	}
	for root := 1<<base - 1; root < 1<<(base+1)-1; root++ {
		for local := 0; local < fb.h; local++ {
			for j := 0; j < 1<<local; j++ {
				order = append(order, (root+1)<<local-1+j)
			}
		}
	}
	want := make([]byte, (1<<levels-1)*bb)
	for off := 0; off < len(want); off += rb {
		binary.LittleEndian.PutUint32(want[off:], lenAbsent)
	}
	for i, b := range order {
		if b >= g.buckets {
			continue
		}
		slots, err := mem.ReadBucket(b)
		if err != nil {
			t.Fatal(err)
		}
		fb.encode(want[i*bb:(i+1)*bb], slots)
	}
	got, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file image (%d B) differs from Mem's contents at the layout offsets (%d B)", len(got), len(want))
	}
}

// TestFileMatchesMemUnderRandomOps runs matchFileAndMem with 400 random
// ops on each of randomOpGeometries.
func TestFileMatchesMemUnderRandomOps(t *testing.T) {
	for _, g := range randomOpGeometries() {
		t.Run(fmt.Sprintf("buckets=%d/slots=%d/payload=%d", g.buckets, g.slots, g.payload), func(t *testing.T) {
			matchFileAndMem(t, g, rand.New(rand.NewSource(int64(g.buckets*31+g.slots*7+g.payload))), 400)
		})
	}
}

// FuzzStoreFile runs matchFileAndMem on a geometry and an op sequence
// decoded from the input: up to 2047 buckets, so the tree has both a
// resident top and a bottom band, 1 to 5 slots, and payloads up to 1024
// bytes, large enough that a three-bucket subtree overflows the band
// buffer and the band is one level deep. Each op takes at least one byte
// of ops; at most 400 run. The seeds are TestFileMatchesMemUnderRandomOps's
// geometries plus a one-level band.
func FuzzStoreFile(f *testing.F) {
	for i, g := range append(randomOpGeometries(), fileGeometry{63, 5, 700}) {
		ops := make([]byte, 1200)
		rand.New(rand.NewSource(int64(i))).Read(ops)
		f.Add(uint16(g.buckets-1), uint8(g.slots-1), uint16(g.payload-1), ops)
	}
	f.Fuzz(func(t *testing.T, buckets uint16, slots uint8, payload uint16, ops []byte) {
		g := fileGeometry{1 + int(buckets)%2047, 1 + int(slots)%5, 1 + int(payload)%1024}
		matchFileAndMem(t, g, &byteSource{ops}, min(len(ops), 400))
	})
}

func TestLatencyDelays(t *testing.T) {
	const d = 2 * time.Millisecond
	b := NewLatency(NewMem(1, 1), d)
	start := time.Now()
	if _, err := b.ReadBucket(0); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < d {
		t.Fatalf("read returned after %v, want >= %v", got, d)
	}
}
