package oram

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"shadowblock/internal/crypt"
	"shadowblock/internal/rng"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// functionalBackends builds one of each store.Backend over cfg's geometry.
func functionalBackends(t testing.TB, cfg Config) map[string]store.Backend {
	t.Helper()
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	sealed := crypt.NonceSize + cfg.BlockBytes
	fb, err := store.NewFile(filepath.Join(t.TempDir(), "tree.dat"), geo.NumBuckets(), cfg.Z, sealed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]store.Backend{
		"mem":    store.NewMem(geo.NumBuckets(), cfg.Z),
		"file":   fb,
		"remote": store.NewLatency(store.NewMem(geo.NumBuckets(), cfg.Z), time.Microsecond),
	}
}

// TestFunctionalRoundTripAllBackends drives the same mixed workload over
// each storage backend: every value written must read back exactly, and
// the backend must not change what the controller computes.
func TestFunctionalRoundTripAllBackends(t *testing.T) {
	base := testConfig()
	base.Functional = true
	for name, back := range functionalBackends(t, base) {
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.Store = back
			c := MustNew(cfg, nil)
			defer back.Close()

			ref := make(map[uint32][]byte)
			r := rng.NewXoshiro(11)
			now := int64(0)
			for i := 0; i < 150; i++ {
				addr := uint32(r.Uint64n(48))
				if r.Float64() < 0.5 {
					v := []byte{byte(i), 0, byte(addr), 0} // trailing NULs on purpose
					out, err := c.WriteBlock(now, addr, v)
					if err != nil {
						t.Fatal(err)
					}
					ref[addr] = v
					now = out.Done + 1
				} else {
					got, out := c.ReadBlock(now, addr)
					if want, ok := ref[addr]; ok && !bytes.Equal(got[:len(want)], want) {
						t.Fatalf("i=%d addr=%d: got %v want %v", i, addr, got[:len(want)], want)
					}
					now = out.Done + 1
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendDoesNotChangeTiming pins the storage seam's invariant: the
// backend holds bytes, the timing model holds cycles, and swapping the
// backend (or running without payloads at all) must not move a single
// simulated cycle or externally visible touch.
func TestBackendDoesNotChangeTiming(t *testing.T) {
	type runResult struct {
		events []Event
		dones  []int64
	}
	run := func(functional bool, back store.Backend) runResult {
		cfg := testConfig()
		cfg.Functional = functional
		cfg.Store = back
		c := MustNew(cfg, nil)
		var res runResult
		c.SetObserver(func(e Event) { res.events = append(res.events, e) })
		now := int64(0)
		for i := 0; i < 120; i++ {
			out := c.Request(now, uint32(i%37), i%3 == 0)
			res.dones = append(res.dones, out.Done)
			now = out.Done + 1
		}
		return res
	}

	want := run(false, nil) // timing-only: no payloads, no backend
	for name, back := range functionalBackends(t, testConfig()) {
		got := run(true, back)
		back.Close()
		if len(got.events) != len(want.events) {
			t.Fatalf("%s: %d events, want %d", name, len(got.events), len(want.events))
		}
		for i := range want.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("%s: event %d = %+v, want %+v", name, i, got.events[i], want.events[i])
			}
		}
		for i := range want.dones {
			if got.dones[i] != want.dones[i] {
				t.Fatalf("%s: request %d done at %d, want %d", name, i, got.dones[i], want.dones[i])
			}
		}
	}
}

func TestWriteBlockRejectsOversize(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	c := MustNew(cfg, nil)
	big := make([]byte, cfg.BlockBytes+1)
	if _, err := c.WriteBlock(0, 1, big); err == nil {
		t.Fatal("oversized payload accepted (the old code silently truncated it)")
	}
	// Exactly block-sized payloads are fine.
	if _, err := c.WriteBlock(0, 1, big[:cfg.BlockBytes]); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRequiresFunctional(t *testing.T) {
	cfg := testConfig()
	cfg.Store = store.NewMem(1, 1)
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("backend without functional mode accepted")
	}
}

// TestQueueFunctionalReadWrite drives GET/PUT through the front end the
// way shadowd does, including a coalesced read: a secondary read presented
// before its primary's forward must share the MSHR's timing yet still
// return the freshest data.
func TestQueueFunctionalReadWrite(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	q := NewQueue(MustNew(cfg, nil), 2)

	out, err := q.Write(0, 0, 7, []byte("hello\x00"))
	if err != nil {
		t.Fatal(err)
	}
	now := out.Done + 1

	// Push block 7 out of the stash so the next read opens a real MSHR.
	for i := uint32(100); i < 140; i++ {
		_, done := q.Issue(now, 0, i, false)
		now = done + 1
	}

	data, out1 := q.Read(now, 0, 7)
	if !bytes.Equal(data[:6], []byte("hello\x00")) {
		t.Fatalf("primary read = %q", data[:6])
	}
	if out1.StashHit {
		t.Fatal("expected a real ORAM access, got a stash hit")
	}

	// Core 1 presents the same address before the primary's forward: the
	// read must coalesce (same forward cycle) and still see the data.
	before := q.Stats().Coalesced
	data2, out2 := q.Read(now, 1, 7)
	if q.Stats().Coalesced != before+1 {
		t.Fatalf("coalesced = %d, want %d", q.Stats().Coalesced, before+1)
	}
	if out2.Forward != out1.Forward {
		t.Fatalf("coalesced forward %d != primary %d", out2.Forward, out1.Forward)
	}
	if !bytes.Equal(data2[:6], []byte("hello\x00")) {
		t.Fatalf("coalesced read = %q", data2[:6])
	}

	// Oversized queue writes error without disturbing the front end.
	if _, err := q.Write(out1.Done+1, 0, 7, make([]byte, cfg.BlockBytes+5)); err == nil {
		t.Fatal("oversized queue write accepted")
	}

	// Read-your-writes across cores after the coalesce window closes.
	out3, err := q.Write(out1.Done+1, 1, 7, []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := q.Read(out3.Done+1, 0, 7)
	if !bytes.Equal(got[:5], []byte("world")) {
		t.Fatalf("after overwrite: %q", got[:5])
	}
}

// TestPeekBlockFindsTreeResident pins PeekBlock's in-tree path: after
// enough unrelated traffic the block has been evicted out of the stash,
// and PeekBlock must decrypt the real copy from its assigned path without
// performing an access.
func TestPeekBlockFindsTreeResident(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	c := MustNew(cfg, nil)
	out, err := c.WriteBlock(0, 3, []byte("peek me"))
	if err != nil {
		t.Fatal(err)
	}
	now := out.Done + 1
	for i := uint32(200); i < 260; i++ {
		o := c.Request(now, i, false)
		now = o.Done + 1
	}
	reads := c.Stats().ORAMAccesses
	got, ok := c.PeekBlock(3)
	if !ok {
		t.Fatal("PeekBlock lost block 3")
	}
	if !bytes.Equal(got[:7], []byte("peek me")) {
		t.Fatalf("PeekBlock = %q", got[:7])
	}
	if c.Stats().ORAMAccesses != reads {
		t.Fatal("PeekBlock performed an ORAM access")
	}
	if _, ok := c.PeekBlock(uint32(c.NumDataBlocks())); ok {
		t.Fatal("out-of-space address peeked")
	}
}

// traceEntry is one line of the interleaved log TestBackendTraceIsPathTrace
// checks: either an observer event or a backend call.
type traceEntry struct {
	ev     *Event
	write  bool
	bucket int
}

// recordingBackend appends every call it forwards to a shared log.
type recordingBackend struct {
	store.Backend
	log *[]traceEntry
}

func (r recordingBackend) ReadBucket(bucket int) ([][]byte, error) {
	*r.log = append(*r.log, traceEntry{bucket: bucket})
	return r.Backend.ReadBucket(bucket)
}

func (r recordingBackend) WriteBucket(bucket int, slots [][]byte) error {
	*r.log = append(*r.log, traceEntry{write: true, bucket: bucket})
	return r.Backend.WriteBucket(bucket, slots)
}

// TestBackendTraceIsPathTrace pins obliviousness at the storage seam: what
// a Backend (the "remote server") observes must be exactly the path trace
// the observer reports — every path read is one ReadBucket per bucket of
// its path, root to leaf, every path write one WriteBucket per bucket, and
// nothing else ever reaches the backend. A read-only access that touched
// only the bucket holding its block would tell the server the block's
// tree level.
func TestBackendTraceIsPathTrace(t *testing.T) {
	base := testConfig()
	base.Functional = true
	geo, err := tree.NewGeometry(base.L, base.Z)
	if err != nil {
		t.Fatal(err)
	}
	sequences := map[string]func(i int, r *rng.Xoshiro) uint32{
		"same-address": func(int, *rng.Xoshiro) uint32 { return 5 },
		"uniform":      func(_ int, r *rng.Xoshiro) uint32 { return uint32(r.Uint64n(uint64(base.NumDataBlocks()))) },
	}
	for name, back := range functionalBackends(t, base) {
		for seqName, next := range sequences {
			t.Run(name+"/"+seqName, func(t *testing.T) {
				var log []traceEntry
				cfg := base
				cfg.Store = recordingBackend{back, &log}
				c := MustNew(cfg, nil)
				log = log[:0] // construction writes the initial image
				c.SetObserver(func(e Event) { log = append(log, traceEntry{ev: &e}) })

				r := rng.NewXoshiro(7)
				now := int64(0)
				for i := 0; i < 200; i++ {
					addr := next(i, r)
					var out Outcome
					if i%3 == 0 {
						if out, err = c.WriteBlock(now, addr, []byte{byte(i)}); err != nil {
							t.Fatal(err)
						}
					} else {
						_, out = c.ReadBlock(now, addr)
					}
					now = out.Done + 1
				}

				path := make([]int, geo.Levels())
				events := 0
				for i := 0; i < len(log); {
					e := log[i]
					if e.ev == nil {
						t.Fatalf("log[%d]: backend call (write=%v, bucket %d) outside any path access", i, e.write, e.bucket)
					}
					events++
					i++
					for lv, bucket := range geo.Path(e.ev.Leaf, path) {
						if i == len(log) || log[i].ev != nil {
							t.Fatalf("%+v: only %d backend calls, want %d", *e.ev, lv, geo.Levels())
						}
						if got, want := log[i], (traceEntry{write: e.ev.Kind == EvPathWrite, bucket: bucket}); got != want {
							t.Fatalf("%+v: backend call %d is %+v, want %+v", *e.ev, lv, got, want)
						}
						i++
					}
				}
				if events == 0 {
					t.Fatal("sequence performed no path access")
				}
			})
		}
	}
}
