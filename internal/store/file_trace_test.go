package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// ioCall is one pread or pwrite a File made.
type ioCall struct {
	write bool
	off   int64
	n     int
}

// recorder stands between a File and its file and logs every call.
type recorder struct {
	readerWriterAt
	calls []ioCall
}

func (r *recorder) ReadAt(p []byte, off int64) (int, error) {
	r.calls = append(r.calls, ioCall{false, off, len(p)})
	return r.readerWriterAt.ReadAt(p, off)
}

func (r *recorder) WriteAt(p []byte, off int64) (int, error) {
	r.calls = append(r.calls, ioCall{true, off, len(p)})
	return r.readerWriterAt.WriteAt(p, off)
}

// TestFileSyscallsDependOnBucketsAlone drives two Files through the same
// sequence of bucket reads and writes — whole-path reads, evictions (a path
// read, then the write of that path), path writes to another path,
// read-modify-writes and lone writes — with different payload bytes,
// lengths and nil slots. Both must make the same preads and pwrites, at the
// same offsets and sizes, through the writes Close makes.
func TestFileSyscallsDependOnBucketsAlone(t *testing.T) {
	type geometry struct{ buckets, slots, payload int }
	for _, g := range []geometry{{15, 3, 16}, {255, 5, 80}, {1023, 5, 80}, {2047, 2, 16}} {
		t.Run(fmt.Sprintf("buckets=%d/slots=%d/payload=%d", g.buckets, g.slots, g.payload), func(t *testing.T) {
			run := func(payloadSeed int64) []ioCall {
				fb, err := NewFile(filepath.Join(t.TempDir(), "tree.dat"), g.buckets, g.slots, g.payload)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recorder{readerWriterAt: fb.dev}
				fb.dev = rec
				seq := rand.New(rand.NewSource(1))            // which buckets
				data := rand.New(rand.NewSource(payloadSeed)) // what they hold
				payload := func() []byte {
					if data.Intn(3) == 0 {
						return nil
					}
					p := make([]byte, data.Intn(g.payload+1))
					data.Read(p)
					return p
				}
				path := func() []int {
					var p []int
					for b := 0; b < g.buckets; b = 2*b + 1 + seq.Intn(2) {
						p = append(p, b)
					}
					return p
				}
				read := func(b int) {
					if _, err := fb.ReadBucket(b); err != nil {
						t.Fatal(err)
					}
				}
				write := func(b int) {
					slots := make([][]byte, g.slots)
					for s := range slots {
						slots[s] = payload()
					}
					if err := fb.WriteBucket(b, slots); err != nil {
						t.Fatal(err)
					}
				}
				for op := 0; op < 300; op++ {
					switch seq.Intn(5) {
					case 0: // whole-path read
						for _, b := range path() {
							read(b)
						}
					case 1: // eviction: the path read, then its write
						p := path()
						for _, b := range p {
							read(b)
						}
						for _, b := range p {
							write(b)
						}
					case 2: // a path write after another path's read
						for _, b := range path() {
							write(b)
						}
					case 3: // read-modify-write through the returned views
						b := seq.Intn(g.buckets)
						cur, err := fb.ReadBucket(b)
						if err != nil {
							t.Fatal(err)
						}
						cur[seq.Intn(g.slots)] = payload()
						if err := fb.WriteBucket(b, cur); err != nil {
							t.Fatal(err)
						}
					default: // a lone write
						write(seq.Intn(g.buckets))
					}
				}
				if err := fb.Close(); err != nil {
					t.Fatal(err)
				}
				return rec.calls
			}
			a, b := run(2), run(3)
			var reads, writes int
			for i := 0; i < max(len(a), len(b)); i++ {
				if i >= len(a) || i >= len(b) || a[i] != b[i] {
					t.Fatalf("traces diverge at call %d of %d and %d", i, len(a), len(b))
				}
				if a[i].write {
					writes++
				} else {
					reads++
				}
			}
			if reads == 0 || writes == 0 {
				t.Fatalf("trace of %d preads and %d pwrites exercises too little", reads, writes)
			}
			t.Logf("%d preads, %d pwrites", reads, writes)
		})
	}
}
