package core

import (
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
)

// Hot-path pins for the shadow-block policy. The duplication queues run
// inside every path write, so the policy — not just the bare controller —
// must hold the request path's zero-allocation and throughput properties.

// warmShadow builds a dynamic-partition shadow ORAM and drives it past the
// cold-start region (stash converges, Hot Address Cache fills, the
// candidate arena and queues reach steady-state capacity).
func warmShadow(tb testing.TB) (*oram.Controller, *rng.Xoshiro, int64) {
	tb.Helper()
	cfg := oram.Default()
	cfg.L = 10
	cfg.StashCapacity = 120
	ctrl, _, err := New(cfg, Dynamic(3))
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.NewXoshiro(42)
	n := uint64(cfg.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 2000; i++ {
		out := ctrl.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
	return ctrl, r, now
}

func BenchmarkShadowRequestWarm(b *testing.B) {
	ctrl, r, now := warmShadow(b)
	n := uint64(ctrl.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ctrl.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

// TestShadowRequestZeroAlloc extends the oram package's allocation gate to
// the duplication policy: a warmed shadow ORAM must not allocate per
// request — the candidate arena, queues, and Hot Address Cache all reuse
// their steady-state storage.
func TestShadowRequestZeroAlloc(t *testing.T) {
	ctrl, r, now := warmShadow(t)
	n := uint64(ctrl.NumDataBlocks())
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		out := ctrl.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
		i++
	})
	if avg != 0 {
		t.Fatalf("shadow request path allocates %.1f allocs/op, want 0", avg)
	}
}

// recordedWrite is one path write of a warmed shadow ORAM, captured at
// BeginPathWrite: a copy of the stash the policy seeded from, the
// partition, and the protocol calls the engine made.
type recordedWrite struct {
	st        *stash.Stash
	partition int
	leaf      uint32
	steps     []writeStep
}

// writeStep is one slot of a recorded path write: a real placement, or a
// SelectDup and the shadow it picked (Kind Dummy for none).
type writeStep struct {
	m     block.Meta
	level int
	real  bool
}

// writeRecorder passes every call through to the policy and, once armed,
// records the next path write.
type writeRecorder struct {
	*Policy
	armed bool
	w     *recordedWrite
}

func (r *writeRecorder) BeginPathWrite(leaf uint32) {
	if r.armed {
		st := stash.New(r.st.Capacity())
		r.st.ForEach(func(e stash.Entry) { st.Insert(e) })
		r.w = &recordedWrite{st: st, partition: r.partition, leaf: leaf}
	}
	r.Policy.BeginPathWrite(leaf)
}

func (r *writeRecorder) NoteEvict(m block.Meta, level int) {
	if r.armed && m.Kind == block.Real {
		r.w.steps = append(r.w.steps, writeStep{m: m, level: level, real: true})
	}
	r.Policy.NoteEvict(m, level)
}

func (r *writeRecorder) SelectDup(leaf uint32, level int) (block.Meta, bool) {
	m, ok := r.Policy.SelectDup(leaf, level)
	if r.armed {
		r.w.steps = append(r.w.steps, writeStep{m: m, level: level})
	}
	return m, ok
}

func (r *writeRecorder) EndPathWrite() {
	r.Policy.EndPathWrite()
	r.armed = false
}

// replay drives the recorded write through p, which must hold the
// recorded Hot Address Cache, and returns its picks in order.
func (w *recordedWrite) replay(p *Policy, picks []block.Meta) []block.Meta {
	p.BeginPathWrite(w.leaf)
	for _, s := range w.steps {
		if s.real {
			p.NoteEvict(s.m, s.level)
			continue
		}
		m, ok := p.SelectDup(w.leaf, s.level)
		if ok {
			p.NoteEvict(m, s.level)
		}
		picks = append(picks, m)
	}
	p.EndPathWrite()
	return picks
}

// kvSteadyWrite records a path write at the steady state of the embedded
// key-value workload: an L=12, Z=5 tree with a 200-entry stash under
// dynamic-3, after a prefill-sized run of uniform 50/50 traffic over 4096
// blocks. It returns the policy, bound to the recorded stash and partition
// and checked to replay the write pick for pick.
func kvSteadyWrite(tb testing.TB) (*Policy, *recordedWrite) {
	tb.Helper()
	cfg := oram.Default()
	cfg.L = 12
	p, err := NewUnbound(Dynamic(3))
	if err != nil {
		tb.Fatal(err)
	}
	rec := &writeRecorder{Policy: p}
	ctrl, err := oram.New(cfg, rec)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.NewXoshiro(7)
	now := int64(0)
	request := func() {
		out := ctrl.Request(now, uint32(r.Uint64n(4096)), r.Uint64n(2) == 0)
		now = out.Done + 1
	}
	for i := 0; i < 8000; i++ {
		request()
	}
	for rec.armed = true; rec.armed; {
		request()
	}
	w := rec.w
	p.st, p.partition = w.st, w.partition
	got := w.replay(p, nil)
	i := 0
	for _, s := range w.steps {
		if s.real {
			continue
		}
		if got[i] != s.m {
			tb.Fatalf("replayed pick %d is %v, the engine's was %v", i, got[i], s.m)
		}
		i++
	}
	return p, w
}

// BenchmarkPathWrite times the policy's side of one path write at the
// embedded key-value workload's steady state: seeding from the stash's
// shadows, the real placements, and a SelectDup and its note per free
// slot. The engine's own work is not in it.
func BenchmarkPathWrite(b *testing.B) {
	p, w := kvSteadyWrite(b)
	picks := make([]block.Meta, 0, len(w.steps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		picks = w.replay(p, picks[:0])
	}
	b.StopTimer()
	b.ReportMetric(float64(w.st.Snapshot().Shadow), "shadows/op")
	b.ReportMetric(float64(len(picks)), "slots/op")
}
