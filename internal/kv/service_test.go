package kv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shadowblock/internal/oram"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

func openService(t *testing.T, level int, backend BackendFunc) *Service {
	t.Helper()
	s, err := Open(level, backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServiceRoundTrip runs Put, Get and Delete over each backend kind:
// values round-trip bit-exact, an overwrite wins, a deleted key is gone,
// and only ops on an existing key take simulated time.
func TestServiceRoundTrip(t *testing.T) {
	for _, kind := range []string{"mem", "file", "remote"} {
		t.Run(kind, func(t *testing.T) {
			s := openService(t, 6, Backend(kind, filepath.Join(t.TempDir(), "tree.dat"), 0))
			var now int64
			if _, found, done, err := s.Get(now, "a"); found || done != now || err != nil {
				t.Fatalf("Get of an absent key: found %v, done %d, err %v; want a miss at %d", found, done, err, now)
			}
			for _, want := range [][]byte{[]byte("payload\x00\x00"), []byte("second"), {}} {
				done, err := s.Put(now, "a", want)
				if err != nil || done <= now {
					t.Fatalf("Put %q: done %d, err %v", want, done, err)
				}
				now = done + 1
				got, found, done, err := s.Get(now, "a")
				if err != nil || !found || !bytes.Equal(got, want) || done <= now {
					t.Fatalf("Get after Put %q: %q found %v done %d err %v", want, got, found, done, err)
				}
				now = done + 1
			}
			if found, done, err := s.Delete(now, "a"); !found || err != nil || done <= now {
				t.Fatalf("Delete: found %v, done %d, err %v", found, done, err)
			}
			if _, found, _, _ := s.Get(now, "a"); found {
				t.Fatal("Get after Delete found the key")
			}
			if found, done, err := s.Delete(now, "a"); found || done != now || err != nil {
				t.Fatalf("second Delete: found %v, done %d, err %v; want a miss at %d", found, done, err, now)
			}
			if _, err := s.Put(now, "big", make([]byte, s.MaxValue()+1)); err == nil {
				t.Fatal("a value past MaxValue was accepted")
			}
			if _, found, _, _ := s.Get(now, "big"); found {
				t.Fatal("a rejected Put assigned its key")
			}
			if keys, eng, _ := s.Stats(); keys != 0 || eng.Anomalies != 0 || eng.StashOverflows != 0 {
				t.Fatalf("Stats: %d keys, %d anomalies, %d stash overflows; want 0", keys, eng.Anomalies, eng.StashOverflows)
			}
		})
	}
}

// TestDeleteScrubsBeforeRecycle: a new key given a deleted key's freed
// address reads an empty value, not the deleted one.
func TestDeleteScrubsBeforeRecycle(t *testing.T) {
	s := openService(t, 6, Backend("mem", "", 0))
	done, err := s.Put(0, "old", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	freed, _ := s.dir.Lookup("old")
	if _, done, err = s.Delete(done+1, "old"); err != nil {
		t.Fatal(err)
	}
	if addr, err := s.dir.Assign("new"); err != nil || addr != freed {
		t.Fatalf("Assign(new) = %d, %v; want the freed address %d", addr, err, freed)
	}
	if got, found, _, err := s.Get(done+1, "new"); err != nil || !found || len(got) != 0 {
		t.Fatalf("recycled address reads %q (found %v, err %v), want the empty value", got, found, err)
	}
}

// TestOpenValidatesBeforeBuilding: a tree level the engine rejects fails
// Open before the backend is built, so no file is created.
func TestOpenValidatesBeforeBuilding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.dat")
	for _, level := range []int{3, 25} {
		if _, err := Open(level, Backend("file", path, 0)); err == nil {
			t.Fatalf("Open(L=%d) accepted", level)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Open(L=%d) failed but left the backend file (stat: %v)", level, err)
		}
	}
	for _, b := range []BackendFunc{Backend("file", "", 0), Backend("disk", "", 0)} {
		if _, err := Open(6, b); err == nil {
			t.Fatal("a backend that cannot be built was accepted")
		}
	}
}

// traceEntry is one line of the interleaved log
// TestSameKeyTrafficBackendTraceIsPathTrace checks: an observer event, or
// a backend call.
type traceEntry struct {
	ev     *oram.Event
	write  bool
	bucket int
}

// recordingBackend logs every call it forwards.
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

// TestSameKeyTrafficBackendTraceIsPathTrace presents GET/PUT/DELETE on
// two hot keys in batches of 16 at one cycle each, as shadowd's batcher
// does, so same-key ops share a cycle; the engine serves them in
// presentation order (no functional request coalesces). What the storage
// backend sees must be exactly the observer's path trace, and every GET
// must return the latest write presented before it.
func TestSameKeyTrafficBackendTraceIsPathTrace(t *testing.T) {
	const level, batches, batch = 6, 30, 16
	var log []traceEntry
	s := openService(t, level, func(buckets, slots, _ int) (store.Backend, error) {
		return recordingBackend{store.NewMem(buckets, slots), &log}, nil
	})
	s.eng.SetObserver(func(e oram.Event) { log = append(log, traceEntry{ev: &e}) })

	model := map[string]string{}
	var now int64
	for b := 0; b < batches; b++ {
		maxDone := now
		for j := 0; j < batch; j++ {
			i := b*batch + j
			key := []string{"hot-a", "hot-b"}[(i/2)%2]
			if i%2 == 1 {
				// Cold traffic: misses whose evictions push the hot
				// blocks out of the stash, so hot reads miss too.
				key = fmt.Sprintf("cold-%d", i%16)
			}
			var done int64
			var err error
			switch {
			case i%3 == 0:
				v := fmt.Sprintf("v%d", i)
				done, err = s.Put(now, key, []byte(v))
				model[key] = v
			case i%7 == 6:
				_, done, err = s.Delete(now, key)
				delete(model, key)
			default:
				var got []byte
				var found bool
				got, found, done, err = s.Get(now, key)
				if want, ok := model[key]; found != ok || string(got) != want {
					t.Fatalf("op %d: GET %s = %q (found %v), want %q (found %v)", i, key, got, found, want, ok)
				}
			}
			if err != nil {
				t.Fatalf("op %d on %s: %v", i, key, err)
			}
			maxDone = max(maxDone, done)
		}
		now = maxDone + 1
	}
	if _, _, q := s.Stats(); q.Coalesced != 0 || q.OnChip == 0 {
		t.Fatalf("queue %+v: want no coalesced read and some served on chip", q)
	}

	geo, err := tree.NewGeometry(level, oram.Default().Z)
	if err != nil {
		t.Fatal(err)
	}
	path := make([]int, geo.Levels())
	for i := 0; i < len(log); {
		e := log[i]
		if e.ev == nil {
			t.Fatalf("log[%d]: backend call (write=%v, bucket %d) outside any path access", i, e.write, e.bucket)
		}
		i++
		for lv, bucket := range geo.Path(e.ev.Leaf, path) {
			want := traceEntry{write: e.ev.Kind == oram.EvPathWrite, bucket: bucket}
			if i == len(log) || log[i] != want {
				t.Fatalf("%+v: backend call %d is not %+v", *e.ev, lv, want)
			}
			i++
		}
	}
}
