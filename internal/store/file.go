package store

import (
	"encoding/binary"
	"fmt"
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
// Buckets are laid out in subtree bands, as tree.Layout places them in
// DRAM rows but without row padding: band c holds tree levels
// [c·h, min((c+1)·h, L+1)), and each subtree of a band (a bucket at level
// c·h with its descendants down to the band's deepest level) is contiguous,
// in local heap order. h is the largest height whose subtree fits
// bandBytes. The backend buffers one subtree per band:
//
//   - ReadBucket reads the bucket's whole subtree with one pread when its
//     band holds a different one, then answers from the buffer. A path read
//     thus costs at most one pread per band, and band 0, a single subtree,
//     is read once.
//   - WriteBucket into the buffered subtree patches the buffer and widens
//     the band's dirty range. The range goes out in one pwrite when the
//     bucket written is at the band's deepest level (the last bucket of a
//     root-to-leaf path write in the band), before the band's buffer is
//     replaced, and at Close. A write into any other subtree goes straight
//     to the file.
//
// An eviction's path write follows its read of the same path, so it costs
// one pwrite per band. Which syscalls reach the file, at which offsets and
// sizes, is a function of the sequence of buckets touched alone.
type File struct {
	f       *os.File
	buckets int
	slots   int
	payload int // max payload bytes per slot
	h       int // levels per band
	bands   []band
	direct  []byte // one bucket's records, for writes outside the buffered subtrees
	views   [][]byte
}

// band is one subtree band's buffer: the records of the subtree whose root
// sits at position sub of the band's top level (sub = -1: none), and the
// byte range [lo, hi) of it not yet written to the file (lo == hi: clean).
type band struct {
	first  int64 // file offset of the band's first subtree
	levels int   // tree levels in the band: h, or fewer for the deepest band
	sub    int
	buf    []byte
	lo, hi int
}

const (
	lenAbsent    = ^uint32(0)
	presizeBytes = 1 << 20
	bandBytes    = 8 << 10 // max bytes of one buffered subtree
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
	fb := &File{f: f, buckets: buckets, slots: slots, payload: payload, h: 1}
	bb := fb.bucketBytes()
	levels := bits.Len(uint(buckets))
	for fb.h < levels && (1<<(fb.h+1)-1)*bb <= bandBytes {
		fb.h++
	}
	for top := 0; top < levels; top += fb.h {
		n := min(fb.h, levels-top)
		fb.bands = append(fb.bands, band{
			first:  int64(1<<top-1) * int64(bb),
			levels: n,
			sub:    -1,
			buf:    make([]byte, (1<<n-1)*bb),
		})
	}
	fb.direct = make([]byte, bb)
	fb.views = make([][]byte, slots)

	// Pre-size the file and mark every slot absent, about a megabyte of
	// buckets per write.
	extent := 1<<levels - 1
	per := min(max(presizeBytes/bb, 1), extent)
	chunk := make([]byte, per*bb)
	for off := 0; off < len(chunk); off += fb.recordBytes() {
		binary.LittleEndian.PutUint32(chunk[off:], lenAbsent)
	}
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

// locate returns bucket's band, the subtree holding it (its root's
// position in the band's top level), the bucket's byte offset in that
// subtree, and whether it sits at the band's deepest level.
func (fb *File) locate(bucket int) (b *band, sub, off int, deepest bool) {
	level := bits.Len(uint(bucket)+1) - 1
	pos := bucket + 1 - 1<<level
	b = &fb.bands[level/fb.h]
	local := level % fb.h
	sub = pos >> local
	idx := 1<<local - 1 + pos - sub<<local
	return b, sub, idx * fb.bucketBytes(), local == b.levels-1
}

// subtreeOffset is the file offset of subtree sub of band b.
func (b *band) subtreeOffset(sub int) int64 { return b.first + int64(sub)*int64(len(b.buf)) }

// flush writes b's dirty range, if any, in one pwrite.
func (fb *File) flush(b *band) error {
	if b.lo == b.hi {
		return nil
	}
	at := b.subtreeOffset(b.sub) + int64(b.lo)
	if _, err := fb.f.WriteAt(b.buf[b.lo:b.hi], at); err != nil {
		return fmt.Errorf("store: writing %d buffered bytes at offset %d: %w", b.hi-b.lo, at, err)
	}
	b.lo, b.hi = 0, 0
	return nil
}

// ReadBucket returns views of bucket's records in its band's buffer,
// reading the bucket's subtree first unless it is the one buffered.
func (fb *File) ReadBucket(bucket int) ([][]byte, error) {
	if bucket < 0 || bucket >= fb.buckets {
		return nil, fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	b, sub, off, _ := fb.locate(bucket)
	if b.sub != sub {
		if err := fb.flush(b); err != nil {
			return nil, err
		}
		b.sub = -1
		if _, err := fb.f.ReadAt(b.buf, b.subtreeOffset(sub)); err != nil {
			return nil, fmt.Errorf("store: reading bucket %d: %w", bucket, err)
		}
		b.sub = sub
	}
	rb := fb.recordBytes()
	for s := range fb.views {
		rec := b.buf[off+s*rb : off+(s+1)*rb]
		n := binary.LittleEndian.Uint32(rec[:4])
		if n == lenAbsent {
			fb.views[s] = nil
			continue
		}
		if int(n) > fb.payload {
			return nil, fmt.Errorf("store: bucket %d slot %d record claims %d bytes (max %d)", bucket, s, n, fb.payload)
		}
		fb.views[s] = rec[4 : 4+n : rb]
	}
	return fb.views, nil
}

// WriteBucket encodes slots into bucket's records: into its band's buffer
// when the bucket's subtree is the one buffered (copying views the last
// ReadBucket returned onto themselves), otherwise into a one-bucket buffer
// written straight to the file.
func (fb *File) WriteBucket(bucket int, slots [][]byte) error {
	if bucket < 0 || bucket >= fb.buckets {
		return fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	if len(slots) != fb.slots {
		return fmt.Errorf("store: bucket %d write of %d slots, want %d", bucket, len(slots), fb.slots)
	}
	for s, p := range slots {
		if len(p) > fb.payload {
			return fmt.Errorf("store: bucket %d slot %d payload of %d bytes (max %d)", bucket, s, len(p), fb.payload)
		}
	}
	b, sub, off, deepest := fb.locate(bucket)
	bb := fb.bucketBytes()
	if b.sub != sub {
		fb.encode(fb.direct, slots)
		if _, err := fb.f.WriteAt(fb.direct, b.subtreeOffset(sub)+int64(off)); err != nil {
			return fmt.Errorf("store: writing bucket %d: %w", bucket, err)
		}
		return nil
	}
	fb.encode(b.buf[off:off+bb], slots)
	if b.lo == b.hi {
		b.lo, b.hi = off, off+bb
	} else {
		b.lo, b.hi = min(b.lo, off), max(b.hi, off+bb)
	}
	if deepest {
		return fb.flush(b)
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

// Close writes every band's dirty range and closes the file.
func (fb *File) Close() error {
	var first error
	for c := range fb.bands {
		if err := fb.flush(&fb.bands[c]); err != nil && first == nil {
			first = err
		}
	}
	if err := fb.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
