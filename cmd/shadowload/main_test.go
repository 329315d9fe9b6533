package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeKV is an in-memory stand-in for shadowd's /kv/ routes. With stale
// set it answers exactly one GET, the first of a key overwritten since
// its previous value, with that previous value.
type fakeKV struct {
	mu     sync.Mutex
	cur    map[string][]byte
	prev   map[string][]byte
	stale  bool
	served bool // the stale answer has been given
}

func (f *fakeKV) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	v, ok := f.cur[key]
	switch r.Method {
	case http.MethodGet:
		if p, overwritten := f.prev[key]; f.stale && !f.served && ok && overwritten {
			f.served = true
			v = p
		}
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(v)
	case http.MethodPut:
		body, _ := io.ReadAll(r.Body)
		if ok {
			f.prev[key] = v
		}
		f.cur[key] = body
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if !ok {
			http.NotFound(w, r)
			return
		}
		delete(f.cur, key)
		delete(f.prev, key)
		w.WriteHeader(http.StatusNoContent)
	}
}

// drive runs one worker of 400 ops over 8 keys against a fake.
func drive(t *testing.T, stale bool) (workerResult, *fakeKV) {
	t.Helper()
	f := &fakeKV{cur: map[string][]byte{}, prev: map[string][]byte{}, stale: stale}
	srv := httptest.NewServer(f)
	defer srv.Close()
	res := runWorker(srv.Client(), srv.URL, workerParams{
		id: 0, ops: 400, firstKey: 0, keySpan: 8,
		zipfS: 1.2, readFrac: 0.5, vmax: 40, seed: 1,
	})
	if res.ops != 400 || res.reads == 0 || res.writes == 0 {
		t.Fatalf("worker ran %d ops (%d GET / %d PUT), want 400 of both kinds", res.ops, res.reads, res.writes)
	}
	return res, f
}

func TestWorkerVerifiesHonestServer(t *testing.T) {
	if res, _ := drive(t, false); len(res.failures) != 0 {
		t.Fatalf("honest server failed %d checks: %v", len(res.failures), res.failures)
	}
}

func TestWorkerCatchesStaleRead(t *testing.T) {
	res, f := drive(t, true)
	if !f.served {
		t.Fatal("the workload never read an overwritten key, so nothing was stale")
	}
	if len(res.failures) != 1 || !strings.Contains(res.failures[0], "read-your-writes violated") {
		t.Fatalf("one stale GET recorded %d failures, want one read-your-writes violation: %v", len(res.failures), res.failures)
	}
}
