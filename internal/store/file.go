package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
)

// File is the file-backed backend: every slot owns a fixed-size record,
// and the file never changes size after creation. Records are
//
//	u32 little-endian payload length (lenAbsent = no ciphertext)
//	payload bytes, zero padded to the record's payload capacity
//
// The fixed record size is deliberate: variable-length records would make
// the file's access pattern (offsets, sizes) depend on the data, and the
// whole point of the exercise is that the storage server learns nothing
// but bucket identities.
//
// The tree is kept in two tiers. h is the largest height whose subtree
// fits bandBytes (h = 4 for the default 420-byte buckets).
//
//   - The top, every level above the deepest h, sits at file offset 0 in
//     heap order and lives in memory: NewFile allocates it, every read and
//     write of a top bucket is served there, and its dirty range goes to
//     the file once, at Close. It costs 1/2^h of the file: 860 KB of
//     13.8 MB at L=14, about 55 MB at L=20.
//   - The bottom band, the deepest h levels, follows as contiguous
//     subtrees (a bucket h − 1 levels above the leaves with its
//     descendants), each in local heap order, and one subtree is buffered.
//     ReadBucket reads the bucket's whole subtree with one pread when
//     another is buffered. WriteBucket into the buffered subtree patches
//     the buffer and widens its dirty range, which goes out in one pwrite
//     when the bucket written is a leaf (the last bucket of a root-to-leaf
//     path write), before the buffer is replaced, and at Close. A write
//     into any other subtree goes straight to the file.
//
// A path read thus costs at most one pread, and an eviction's path write,
// which follows its read of the same path, one pwrite. Which syscalls
// reach the file, at which offsets and sizes, is a function of the
// sequence of buckets touched alone.
//
// Close is the one point at which the file is consistent, and it is
// durable once Close returns: Close writes the bottom buffer, then the
// top's dirty range, and syncs. Deferring the top to Close loses nothing a
// crash would not lose anyway: the file is useless without the client's
// position map, stash and key, and none of those survive a crash either.
type File struct {
	f       *os.File
	dev     readerWriterAt // every pread and pwrite goes through it: f, or a test's recorder
	buckets int
	slots   int
	payload int    // max payload bytes per slot
	h       int    // levels in the bottom band
	base    int    // levels above it, held in top
	top     span   // the resident levels above the bottom band
	bottom  span   // the buffered subtree of the bottom band
	direct  []byte // one bucket's records, for writes outside the buffered subtree
	views   [][]byte
}

type readerWriterAt interface {
	io.ReaderAt
	io.WriterAt
}

// span is a buffer of whole buckets at file offset at: the top, or the
// bottom band's subtree sub (-1: none; the top's is always 0). [lo, hi) is
// the byte range of buf not yet written to the file (lo == hi: clean).
type span struct {
	sub    int
	at     int64
	buf    []byte
	lo, hi int
}

const (
	lenAbsent    = ^uint32(0)
	presizeBytes = 1 << 20
	bandBytes    = 8 << 10 // max bytes of the buffered subtree
)

// NewFile creates (or truncates) path as a backend for buckets buckets of
// slots slots, each holding at most payload ciphertext bytes. A bucket
// count that is not a full tree (2^n − 1) is laid out, and the file sized,
// as the smallest full tree that holds it.
func NewFile(path string, buckets, slots, payload int) (*File, error) {
	if buckets < 1 || slots < 1 || payload < 1 {
		return nil, fmt.Errorf("store: bad file geometry (%d buckets, %d slots, %d payload)", buckets, slots, payload)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	fb := &File{f: f, dev: f, buckets: buckets, slots: slots, payload: payload, h: 1}
	bb := fb.bucketBytes()
	levels := bits.Len(uint(buckets))
	for fb.h < levels && (1<<(fb.h+1)-1)*bb <= bandBytes {
		fb.h++
	}
	fb.base = levels - fb.h
	fb.top = span{buf: fb.absent((1<<fb.base - 1) * bb)}
	fb.bottom = span{sub: -1, buf: make([]byte, (1<<fb.h-1)*bb)}
	fb.direct = make([]byte, bb)
	fb.views = make([][]byte, slots)

	// Pre-size the file and mark every slot absent, about a megabyte of
	// buckets per write.
	extent := 1<<levels - 1
	per := min(max(presizeBytes/bb, 1), extent)
	chunk := fb.absent(per * bb)
	for b := 0; b < extent; b += per {
		n := min(per, extent-b) * bb
		if _, err := f.WriteAt(chunk[:n], int64(b)*int64(bb)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: initialising %s: %w", path, err)
		}
	}
	return fb, nil
}

func (fb *File) recordBytes() int { return 4 + fb.payload }
func (fb *File) bucketBytes() int { return fb.slots * fb.recordBytes() }

// absent returns n bytes of records that hold no ciphertext.
func (fb *File) absent(n int) []byte {
	buf := make([]byte, n)
	for off := 0; off < n; off += fb.recordBytes() {
		binary.LittleEndian.PutUint32(buf[off:], lenAbsent)
	}
	return buf
}

// locate returns the span holding bucket, the subtree it must hold for
// that, the bucket's byte offset in it, and whether the bucket is a leaf.
func (fb *File) locate(bucket int) (s *span, sub, off int, leaf bool) {
	level := bits.Len(uint(bucket)+1) - 1
	if level < fb.base {
		return &fb.top, 0, bucket * fb.bucketBytes(), false
	}
	pos := bucket + 1 - 1<<level
	local := level - fb.base
	sub = pos >> local
	idx := 1<<local - 1 + pos - sub<<local
	return &fb.bottom, sub, idx * fb.bucketBytes(), local == fb.h-1
}

// subtreeAt is the file offset of the bottom band's subtree sub.
func (fb *File) subtreeAt(sub int) int64 {
	return int64(len(fb.top.buf)) + int64(sub)*int64(len(fb.bottom.buf))
}

// flush writes s's dirty range, if any, in one pwrite.
func (fb *File) flush(s *span) error {
	if s.lo == s.hi {
		return nil
	}
	at := s.at + int64(s.lo)
	if _, err := fb.dev.WriteAt(s.buf[s.lo:s.hi], at); err != nil {
		return fmt.Errorf("store: writing %d buffered bytes at offset %d: %w", s.hi-s.lo, at, err)
	}
	s.lo, s.hi = 0, 0
	return nil
}

// ReadBucket returns views of bucket's records in its span, reading the
// bucket's subtree first unless it is the one buffered.
func (fb *File) ReadBucket(bucket int) ([][]byte, error) {
	if bucket < 0 || bucket >= fb.buckets {
		return nil, fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	s, sub, off, _ := fb.locate(bucket)
	if s.sub != sub {
		if err := fb.flush(s); err != nil {
			return nil, err
		}
		s.sub, s.at = -1, fb.subtreeAt(sub)
		if _, err := fb.dev.ReadAt(s.buf, s.at); err != nil {
			return nil, fmt.Errorf("store: reading bucket %d: %w", bucket, err)
		}
		s.sub = sub
	}
	rb := fb.recordBytes()
	for i := range fb.views {
		rec := s.buf[off+i*rb : off+(i+1)*rb]
		n := binary.LittleEndian.Uint32(rec[:4])
		if n == lenAbsent {
			fb.views[i] = nil
			continue
		}
		if int(n) > fb.payload {
			return nil, fmt.Errorf("store: bucket %d slot %d record claims %d bytes (max %d)", bucket, i, n, fb.payload)
		}
		fb.views[i] = rec[4 : 4+n : rb]
	}
	return fb.views, nil
}

// WriteBucket encodes slots into bucket's records: into its span when the
// bucket is resident or in the buffered subtree (copying views the last
// ReadBucket returned onto themselves), otherwise into a one-bucket buffer
// written straight to the file.
func (fb *File) WriteBucket(bucket int, slots [][]byte) error {
	if bucket < 0 || bucket >= fb.buckets {
		return fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	if len(slots) != fb.slots {
		return fmt.Errorf("store: bucket %d write of %d slots, want %d", bucket, len(slots), fb.slots)
	}
	for i, p := range slots {
		if len(p) > fb.payload {
			return fmt.Errorf("store: bucket %d slot %d payload of %d bytes (max %d)", bucket, i, len(p), fb.payload)
		}
	}
	s, sub, off, leaf := fb.locate(bucket)
	bb := fb.bucketBytes()
	if s.sub != sub {
		fb.encode(fb.direct, slots)
		if _, err := fb.dev.WriteAt(fb.direct, fb.subtreeAt(sub)+int64(off)); err != nil {
			return fmt.Errorf("store: writing bucket %d: %w", bucket, err)
		}
		return nil
	}
	fb.encode(s.buf[off:off+bb], slots)
	if s.lo == s.hi {
		s.lo, s.hi = off, off+bb
	} else {
		s.lo, s.hi = min(s.lo, off), max(s.hi, off+bb)
	}
	if leaf {
		return fb.flush(s)
	}
	return nil
}

// encode writes slots as records into dst, one bucket long. Payload sizes
// are already checked.
func (fb *File) encode(dst []byte, slots [][]byte) {
	rb := fb.recordBytes()
	for s, p := range slots {
		rec := dst[s*rb : (s+1)*rb]
		if p == nil {
			binary.LittleEndian.PutUint32(rec[:4], lenAbsent)
			clear(rec[4:])
			continue
		}
		binary.LittleEndian.PutUint32(rec[:4], uint32(len(p)))
		n := copy(rec[4:], p)
		clear(rec[4+n:])
	}
}

// Close writes the bottom buffer's dirty range, then the top's, syncs the
// file and closes it. All four steps run, in that order; it returns the
// first error.
func (fb *File) Close() error {
	for _, err := range []error{fb.flush(&fb.bottom), fb.flush(&fb.top), fb.f.Sync(), fb.f.Close()} {
		if err != nil {
			return err
		}
	}
	return nil
}
