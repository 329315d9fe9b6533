// Package store is the pluggable external-memory seam of the functional
// ORAM: where the sealed bucket contents physically live. The timing
// simulator never touches it (timing mode stores no payloads at all); the
// functional mode — the securekv example and the shadowd server — reads
// and writes buckets of ciphertexts through the Backend interface, so the
// same controller can run against process memory, a file, or a simulated
// remote store, exactly the client/server split of Path ORAM deployments.
//
// A Backend sees only what the ORAM adversary sees: which bucket is read
// or written and an indistinguishable ciphertext per slot. Slot order
// within a bucket carries no information (every slot is re-sealed on every
// write).
package store

import (
	"fmt"
	"time"
)

// Backend stores the sealed slot payloads of every bucket.
//
// ReadBucket returns one slice per slot; a nil slot holds no ciphertext
// (buckets start empty until the first write seals them). One rule covers
// every buffer crossing the seam: the result of ReadBucket is a view into
// backend-owned memory, valid until the next call on the backend, and
// WriteBucket copies what it is given, so the caller keeps its buffers and
// may reuse them at once. A ReadBucket result may be handed straight back
// to WriteBucket for the same bucket, with slots replaced but not
// reordered. A Backend is not safe for concurrent use.
type Backend interface {
	ReadBucket(bucket int) ([][]byte, error)
	WriteBucket(bucket int, slots [][]byte) error
	Close() error
}

// Mem is the in-process backend. Each bucket owns one buffer, allocated at
// its first write and reused by every later one, holding its slots at a
// fixed stride (so a bucket read back and rewritten copies onto itself).
// The zero value is not usable; use NewMem.
type Mem struct {
	data  [][]byte // per bucket: slots × stride bytes; nil until written
	lens  []int32  // per slot: payload length, lenNone = no ciphertext
	slots int
	views [][]byte // ReadBucket's result
}

const lenNone = -1

// NewMem builds an in-memory backend for buckets buckets of slots slots.
func NewMem(buckets, slots int) *Mem {
	m := &Mem{
		data:  make([][]byte, buckets),
		lens:  make([]int32, buckets*slots),
		slots: slots,
		views: make([][]byte, slots),
	}
	for i := range m.lens {
		m.lens[i] = lenNone
	}
	return m
}

// ReadBucket returns views of bucket's slots.
func (m *Mem) ReadBucket(bucket int) ([][]byte, error) {
	if bucket < 0 || bucket >= len(m.data) {
		return nil, fmt.Errorf("store: bucket %d outside [0,%d)", bucket, len(m.data))
	}
	stride := len(m.data[bucket]) / m.slots
	for s, n := range m.lens[bucket*m.slots : (bucket+1)*m.slots] {
		m.views[s] = nil
		if n != lenNone {
			m.views[s] = m.data[bucket][s*stride : s*stride+int(n) : (s+1)*stride]
		}
	}
	return m.views, nil
}

// WriteBucket copies slots into bucket's buffer.
func (m *Mem) WriteBucket(bucket int, slots [][]byte) error {
	if bucket < 0 || bucket >= len(m.data) {
		return fmt.Errorf("store: bucket %d outside [0,%d)", bucket, len(m.data))
	}
	if len(slots) != m.slots {
		return fmt.Errorf("store: bucket %d write of %d slots, want %d", bucket, len(slots), m.slots)
	}
	stride := len(m.data[bucket]) / m.slots
	buf := m.data[bucket]
	for _, p := range slots {
		if len(p) > stride {
			// A longer payload than this bucket has held: move to a wider
			// buffer (slots may still alias the old one, so it is not
			// reused).
			stride = len(p)
			buf = nil
		}
	}
	if buf == nil {
		buf = make([]byte, m.slots*stride)
	}
	for s, p := range slots {
		m.lens[bucket*m.slots+s] = lenNone
		if p != nil {
			m.lens[bucket*m.slots+s] = int32(copy(buf[s*stride:], p))
		}
	}
	m.data[bucket] = buf
	return nil
}

// Close releases nothing; the memory is garbage.
func (m *Mem) Close() error { return nil }

// Latency wraps a backend and injects a fixed wall-clock delay per bucket
// operation — the "remote" backend: it models a storage server a network
// round trip away without changing what is stored. Simulated cycle counts
// are unaffected (the timing model never calls into storage); only real
// service time grows.
type Latency struct {
	inner Backend
	d     time.Duration
}

// NewLatency wraps inner with d of delay per ReadBucket/WriteBucket.
func NewLatency(inner Backend, d time.Duration) *Latency {
	return &Latency{inner: inner, d: d}
}

// ReadBucket delays, then reads through.
func (l *Latency) ReadBucket(bucket int) ([][]byte, error) {
	time.Sleep(l.d)
	return l.inner.ReadBucket(bucket)
}

// WriteBucket delays, then writes through.
func (l *Latency) WriteBucket(bucket int, slots [][]byte) error {
	time.Sleep(l.d)
	return l.inner.WriteBucket(bucket, slots)
}

// Close closes the wrapped backend.
func (l *Latency) Close() error { return l.inner.Close() }
