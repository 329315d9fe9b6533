package store

import (
	"bytes"
	"fmt"
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
