package store

import (
	"encoding/binary"
	"fmt"
	"os"
)

// File is the file-backed backend: every slot owns a fixed-size record at
// a computed offset, so bucket reads and writes are two syscalls each and
// the file never changes size after creation. Records are
//
//	u32 little-endian payload length (lenAbsent = no ciphertext)
//	payload bytes, zero padded to the record's payload capacity
//
// The fixed record size is deliberate: variable-length records would make
// the file's access pattern (offsets, sizes) depend on the data, and the
// whole point of the exercise is that the storage server learns nothing
// but bucket identities.
type File struct {
	f       *os.File
	buckets int
	slots   int
	payload int // max payload bytes per slot
	buf     []byte
	views   [][]byte
}

const (
	lenAbsent    = ^uint32(0)
	presizeBytes = 1 << 20
)

// NewFile creates (or truncates) path as a backend for buckets buckets of
// slots slots, each holding at most payload ciphertext bytes.
func NewFile(path string, buckets, slots, payload int) (*File, error) {
	if buckets < 1 || slots < 1 || payload < 1 {
		return nil, fmt.Errorf("store: bad file geometry (%d buckets, %d slots, %d payload)", buckets, slots, payload)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	fb := &File{f: f, buckets: buckets, slots: slots, payload: payload}
	fb.buf = make([]byte, fb.bucketBytes())
	fb.views = make([][]byte, slots)
	// Pre-size the file and mark every slot absent, about a megabyte of
	// buckets per write.
	per := min(max(presizeBytes/fb.bucketBytes(), 1), buckets)
	chunk := make([]byte, per*fb.bucketBytes())
	for off := 0; off < len(chunk); off += fb.recordBytes() {
		binary.LittleEndian.PutUint32(chunk[off:], lenAbsent)
	}
	for b := 0; b < buckets; b += per {
		n := min(per, buckets-b) * fb.bucketBytes()
		if _, err := f.WriteAt(chunk[:n], int64(b)*int64(fb.bucketBytes())); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: initialising %s: %w", path, err)
		}
	}
	return fb, nil
}

func (fb *File) recordBytes() int { return 4 + fb.payload }
func (fb *File) bucketBytes() int { return fb.slots * fb.recordBytes() }

// ReadBucket reads bucket's records into the backend's one scratch buffer
// and returns views of it.
func (fb *File) ReadBucket(bucket int) ([][]byte, error) {
	if bucket < 0 || bucket >= fb.buckets {
		return nil, fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	if _, err := fb.f.ReadAt(fb.buf, int64(bucket)*int64(fb.bucketBytes())); err != nil {
		return nil, fmt.Errorf("store: reading bucket %d: %w", bucket, err)
	}
	for s := 0; s < fb.slots; s++ {
		rec := fb.buf[s*fb.recordBytes() : (s+1)*fb.recordBytes()]
		n := binary.LittleEndian.Uint32(rec[:4])
		if n == lenAbsent {
			fb.views[s] = nil
			continue
		}
		if int(n) > fb.payload {
			return nil, fmt.Errorf("store: bucket %d slot %d record claims %d bytes (max %d)", bucket, s, n, fb.payload)
		}
		fb.views[s] = rec[4 : 4+n]
	}
	return fb.views, nil
}

// WriteBucket copies slots into the scratch buffer (onto themselves, when
// they are the views the last ReadBucket returned) and writes bucket's
// records in one contiguous write.
func (fb *File) WriteBucket(bucket int, slots [][]byte) error {
	if bucket < 0 || bucket >= fb.buckets {
		return fmt.Errorf("store: bucket %d outside [0,%d)", bucket, fb.buckets)
	}
	if len(slots) != fb.slots {
		return fmt.Errorf("store: bucket %d write of %d slots, want %d", bucket, len(slots), fb.slots)
	}
	for s, p := range slots {
		rec := fb.buf[s*fb.recordBytes() : (s+1)*fb.recordBytes()]
		if p == nil {
			binary.LittleEndian.PutUint32(rec[:4], lenAbsent)
			clear(rec[4:])
			continue
		}
		if len(p) > fb.payload {
			return fmt.Errorf("store: bucket %d slot %d payload of %d bytes (max %d)", bucket, s, len(p), fb.payload)
		}
		binary.LittleEndian.PutUint32(rec[:4], uint32(len(p)))
		n := copy(rec[4:], p)
		clear(rec[4+n:])
	}
	if _, err := fb.f.WriteAt(fb.buf, int64(bucket)*int64(fb.bucketBytes())); err != nil {
		return fmt.Errorf("store: writing bucket %d: %w", bucket, err)
	}
	return nil
}

// Close closes the underlying file.
func (fb *File) Close() error { return fb.f.Close() }
