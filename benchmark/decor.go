package main

import (
	"shadowblock/internal/block"
	"shadowblock/internal/cpu"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
	"shadowblock/internal/store"
	"shadowblock/internal/trace"
	"shadowblock/internal/tree"
)

// The decorators below wrap the four public seams the benchmark can reach
// from outside. Each is a pure pass-through: same arguments down, same
// results up, a span around the call.

// tracedSource times trace.Source.Next.
type tracedSource struct {
	inner trace.Source
	tr    *tracer
}

func (s tracedSource) Next() (trace.Access, bool) {
	s.tr.begin(layTrace, false)
	a, ok := s.inner.Next()
	s.tr.end()
	return a, ok
}

// tracedMemory times cpu.CoreMemory.Issue — in the simulator, the
// oram.Queue front end with the engine behind it. The engine itself is not
// wrapped: oram.Queue discovers the write-back pump by asserting
// *oram.Controller, and a wrapper would silently turn -wbd off.
type tracedMemory struct {
	inner cpu.CoreMemory
	tr    *tracer
}

func (m tracedMemory) Issue(now int64, core int, addr uint32, write bool) (int64, int64) {
	m.tr.nextRequest()
	m.tr.begin(layORAM, false)
	f, d := m.inner.Issue(now, core, addr, write)
	m.tr.end()
	return f, d
}

// boundPolicy is what core.Policy offers beyond oram.DupPolicy and engines
// discover by type assertion; the decorator must forward it or the policy
// would never be bound to the engine's geometry.
type boundPolicy interface {
	oram.DupPolicy
	oram.GeometryBinder
	Partition() int
}

// tracedPolicy counts every call the engine makes into the duplication
// policy and times a sample of them (see tracer.beginHot).
type tracedPolicy struct {
	inner boundPolicy
	tr    *tracer
}

var (
	_ oram.DupPolicy      = tracedPolicy{}
	_ oram.GeometryBinder = tracedPolicy{}
)

func (p tracedPolicy) BindGeometry(geo tree.Geometry, st *stash.Stash) error {
	return p.inner.BindGeometry(geo, st)
}

func (p tracedPolicy) Partition() int { return p.inner.Partition() }

func (p tracedPolicy) BeginPathWrite(leaf uint32) {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	p.inner.BeginPathWrite(leaf)
}

func (p tracedPolicy) NoteEvict(m block.Meta, level int) {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	p.inner.NoteEvict(m, level)
}

func (p tracedPolicy) SelectDup(leaf uint32, level int) (block.Meta, bool) {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	return p.inner.SelectDup(leaf, level)
}

func (p tracedPolicy) EndPathWrite() {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	p.inner.EndPathWrite()
}

func (p tracedPolicy) NoteLLCMiss(addr uint32) {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	p.inner.NoteLLCMiss(addr)
}

func (p tracedPolicy) NoteORAMRequest(dummy bool) {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	p.inner.NoteORAMRequest(dummy)
}

func (p tracedPolicy) ShadowPriority(addr uint32) uint64 {
	if p.tr.beginHot(layCore) {
		defer p.tr.end()
	}
	return p.inner.ShadowPriority(addr)
}

// tracedBackend counts store.Backend calls and times a sample of them.
type tracedBackend struct {
	inner store.Backend
	tr    *tracer

	bytesWritten uint64  // sealed payload bytes handed to WriteBucket
	sealedWrites uint64  // WriteBucket calls that installed a ciphertext
	nonNil       []uint8 // ciphertexts per bucket as of its last write
}

func newTracedBackend(inner store.Backend, tr *tracer, buckets int) *tracedBackend {
	return &tracedBackend{inner: inner, tr: tr, nonNil: make([]uint8, buckets)}
}

func (b *tracedBackend) ReadBucket(bucket int) ([][]byte, error) {
	if b.tr.beginHot(layStoreRead) {
		defer b.tr.end()
	}
	return b.inner.ReadBucket(bucket)
}

// WriteBucket also counts how many writes sealed a block. The engine
// changes one slot per call (read-modify-write of the whole bucket), and
// only a cleared slot lowers the bucket's count of ciphertexts, so every
// call that does not lower it carried one freshly encrypted block.
func (b *tracedBackend) WriteBucket(bucket int, slots [][]byte) error {
	var n uint8
	for _, s := range slots {
		if s != nil {
			n++
			b.bytesWritten += uint64(len(s))
		}
	}
	if bucket >= 0 && bucket < len(b.nonNil) {
		if n >= b.nonNil[bucket] && n > 0 {
			b.sealedWrites++
		}
		b.nonNil[bucket] = n
	}
	if b.tr.beginHot(layStoreWrite) {
		defer b.tr.end()
	}
	return b.inner.WriteBucket(bucket, slots)
}

func (b *tracedBackend) Close() error { return b.inner.Close() }
