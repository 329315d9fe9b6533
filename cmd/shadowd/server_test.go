package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shadowblock/internal/kv"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
)

// testServer spins up a small shadowd instance behind httptest.
func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(6, kv.Backend("mem", "", 0))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func doReq(t *testing.T, client *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestServerBasicOps(t *testing.T) {
	_, hs := testServer(t)
	c := hs.Client()

	// Missing key: 404, and the miss costs no ORAM access.
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/nope", nil); code != http.StatusNotFound {
		t.Fatalf("GET absent key: status %d, want 404", code)
	}

	// Values with trailing NULs must round-trip bit-exact (the framing fix).
	want := []byte("payload\x00\x00")
	if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/a", want); code != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", code)
	}
	code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("GET after PUT: status %d body %q, want 200 %q", code, got, want)
	}

	// Overwrite wins.
	want2 := []byte("second")
	doReq(t, c, http.MethodPut, hs.URL+"/kv/a", want2)
	if _, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil); !bytes.Equal(got, want2) {
		t.Fatalf("GET after overwrite: %q, want %q", got, want2)
	}

	// DELETE then GET: gone.
	if code, _ := doReq(t, c, http.MethodDelete, hs.URL+"/kv/a", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", code)
	}
	if code, _ := doReq(t, c, http.MethodDelete, hs.URL+"/kv/a", nil); code != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", code)
	}

	// Oversized value: rejected up front, never truncated.
	big := bytes.Repeat([]byte("x"), 1<<12)
	if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/big", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/big", nil); code != http.StatusNotFound {
		t.Fatalf("oversized PUT must not create the key: status %d, want 404", code)
	}

	// Malformed keys and methods.
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/", nil); code != http.StatusBadRequest {
		t.Fatalf("empty key: status %d, want 400", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/a/b", nil); code != http.StatusBadRequest {
		t.Fatalf("nested key: status %d, want 400", code)
	}
	if code, _ := doReq(t, c, http.MethodPatch, hs.URL+"/kv/a", []byte("x")); code != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH: status %d, want 405", code)
	}

	// Stats endpoint serves JSON with the counters we just generated.
	code, body := doReq(t, c, http.MethodGet, hs.URL+"/statsz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "\"reads\"") {
		t.Fatalf("/statsz: status %d body %q", code, body)
	}
	var snap statsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	for _, field := range []string{"\"anomalies\"", "\"stash_overflows\""} {
		if !strings.Contains(string(body), field) {
			t.Fatalf("/statsz lacks %s: %s", field, body)
		}
	}
	if snap.Anomalies != 0 || snap.StashOverflows != 0 {
		t.Fatalf("/statsz: %d anomalies, %d stash overflows, want 0", snap.Anomalies, snap.StashOverflows)
	}
}

// TestHealthzReportsSilentLoss: /healthz answers ok on a clean engine and
// 503 with the counts once an anomaly or a stash overflow is counted. The
// counters are planted into the snapshot the handler renders, since a
// healthy engine never produces them.
func TestHealthzReportsSilentLoss(t *testing.T) {
	srv, hs := testServer(t)
	if code, body := doReq(t, hs.Client(), http.MethodGet, hs.URL+"/healthz", nil); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz on a clean engine: status %d body %q, want 200 ok", code, body)
	}
	for _, plant := range []func(*statsSnapshot){
		func(s *statsSnapshot) { s.Anomalies = 2 },
		func(s *statsSnapshot) { s.StashOverflows = 3 },
	} {
		snap := srv.stats()
		plant(&snap)
		rec := httptest.NewRecorder()
		writeHealth(rec, snap)
		want := fmt.Sprintf("%d anomalies, %d stash overflows", snap.Anomalies, snap.StashOverflows)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/healthz with %s: status %d body %q, want 503 naming the counts", want, rec.Code, rec.Body)
		}
	}
}

// TestConcurrentReadYourWrites hammers the server from many goroutines with
// overlapping key sets under -race. Each worker owns one private key whose
// value it alone writes — every GET of it must return the worker's latest
// write (read-your-writes through the batch pipeline). All workers also
// fight over one shared key; any value read from it must be a complete
// write from some worker, never a torn or stale-truncated block.
func TestConcurrentReadYourWrites(t *testing.T) {
	_, hs := testServer(t)
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := hs.Client()
			private := fmt.Sprintf("private-%d", w)
			for i := 0; i < rounds; i++ {
				mine := []byte(fmt.Sprintf("w%d-round%d\x00", w, i))
				if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/"+private, mine); code != http.StatusNoContent {
					errs <- fmt.Errorf("worker %d PUT %s: status %d", w, private, code)
					return
				}
				code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/"+private, nil)
				if code != http.StatusOK || !bytes.Equal(got, mine) {
					errs <- fmt.Errorf("worker %d round %d: read-your-writes violated: status %d got %q want %q",
						w, i, code, got, mine)
					return
				}

				shared := []byte(fmt.Sprintf("shared-by-w%d-i%d", w, i))
				doReq(t, c, http.MethodPut, hs.URL+"/kv/shared", shared)
				if code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/shared", nil); code == http.StatusOK {
					if !bytes.HasPrefix(got, []byte("shared-by-w")) {
						errs <- fmt.Errorf("worker %d: torn shared value %q", w, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeterministicArbitration replays the same request sequence against
// two fresh servers and demands identical simulated timelines: the queue's
// (cycle, core) arbitration and the batch clock must not depend on
// anything but the presented sequence.
func TestDeterministicArbitration(t *testing.T) {
	run := func() statsSnapshot {
		srv, err := newServer(6, kv.Backend("mem", "", 0))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i := 0; i < 120; i++ {
			key := fmt.Sprintf("key-%d", i%17)
			switch i % 5 {
			case 0, 1:
				r := request{op: opPut, key: key, value: []byte(fmt.Sprintf("v%d", i))}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d PUT: %v", i, resp.err)
				}
			case 4:
				r := request{op: opDelete, key: key}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d DELETE: %v", i, resp.err)
				}
			default:
				r := request{op: opGet, key: key}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d GET: %v", i, resp.err)
				}
			}
		}
		return srv.stats()
	}

	a, b := run(), run()
	if a.SimCycles != b.SimCycles {
		t.Fatalf("simulated clocks diverged on identical input: %d vs %d cycles", a.SimCycles, b.SimCycles)
	}
	if a.Queue != b.Queue {
		t.Fatalf("queue stats diverged on identical input:\n%+v\n%+v", a.Queue, b.Queue)
	}
	if a.Reads != b.Reads || a.Writes != b.Writes || a.Deletes != b.Deletes || a.Misses != b.Misses {
		t.Fatalf("op counters diverged: %+v vs %+v", a, b)
	}
	if a.SimForward != b.SimForward || a.SimComplete != b.SimComplete {
		t.Fatalf("simulated latency digests diverged")
	}
}

// TestBatchedSubmitsStaySequential fills a whole batch while the serving
// loop is busy and checks the responses still match a sequential model.
func TestBatchedSubmitsStaySequential(t *testing.T) {
	srv, err := newServer(6, kv.Backend("mem", "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			put := request{op: opPut, key: key, value: []byte(key)}
			if resp := srv.submit(&put); resp.err != nil {
				t.Errorf("PUT %s: %v", key, resp.err)
				return
			}
			get := request{op: opGet, key: key}
			resp := srv.submit(&get)
			if resp.err != nil || !resp.found || !bytes.Equal(resp.value, []byte(key)) {
				t.Errorf("GET %s: err=%v found=%v value=%q", key, resp.err, resp.found, resp.value)
			}
		}(i)
	}
	wg.Wait()

	snap := srv.stats()
	if snap.Keys != n {
		t.Fatalf("directory has %d keys, want %d", snap.Keys, n)
	}
	if snap.Errors != 0 {
		t.Fatalf("%d server-side errors", snap.Errors)
	}
	if snap.Anomalies != 0 || snap.StashOverflows != 0 {
		t.Fatalf("engine reports %d anomalies, %d stash overflows", snap.Anomalies, snap.StashOverflows)
	}
}

// kvOp is one completed client operation on the logical clock: a write
// (PUT, or DELETE with absent set) or a GET and what it returned.
type kvOp struct {
	write      bool
	key, value string
	absent     bool
	start, end int64
}

// staleRead reports whether GET g returned a value no linearization allows:
// the write it read must have begun before g ended, and no other write to
// the key may lie wholly between that write's end and g's start.
func staleRead(g kvOp, writes []kvOp) bool {
	initial := kvOp{write: true, key: g.key, absent: true}
	for _, w := range append([]kvOp{initial}, writes...) {
		if w.key != g.key || w.absent != g.absent || w.value != g.value || w.start >= g.end {
			continue
		}
		superseded := false
		for _, w2 := range writes {
			if w2.key == g.key && w2.start > w.end && w2.end < g.start {
				superseded = true
				break
			}
		}
		if !superseded {
			return false
		}
	}
	return true
}

// TestSameKeyTrafficIsLinearizable drives concurrent GET/PUT/DELETE on
// two keys, so the batcher presents same-key requests at one cycle, which
// the engine serves in presentation order (no functional request
// coalesces): every GET must return the latest completed write. The
// backend trace of same-key ops at one cycle is kv's
// TestSameKeyTrafficBackendTraceIsPathTrace.
func TestSameKeyTrafficIsLinearizable(t *testing.T) {
	const level, workers, rounds = 6, 8, 60
	// A backend a round trip away lets requests pile up into full batches.
	srv, err := newServer(level, kv.Backend("remote", "", 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	keys := []string{"hot-a", "hot-b"}
	var clock atomic.Int64
	ops := make([][]kvOp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := hs.Client()
			for i := 0; i < rounds; i++ {
				op := kvOp{key: keys[(w+i/2)%len(keys)]}
				if i%2 == 1 {
					// Cold traffic: misses whose evictions push the hot
					// blocks out of the stash, so hot reads miss too.
					op.key = fmt.Sprintf("cold-%d-%d", w, i%16)
				}
				url := hs.URL + "/kv/" + op.key
				op.start = clock.Add(1)
				switch {
				case i%3 == 0:
					op.write, op.value = true, fmt.Sprintf("w%d-%d", w, i)
					if code, _ := doReq(t, c, http.MethodPut, url, []byte(op.value)); code != http.StatusNoContent {
						t.Errorf("PUT %s: status %d", op.key, code)
						return
					}
				case i%7 == 6:
					op.write, op.absent = true, true
					if code, _ := doReq(t, c, http.MethodDelete, url, nil); code != http.StatusNoContent && code != http.StatusNotFound {
						t.Errorf("DELETE %s: status %d", op.key, code)
						return
					}
				default:
					code, body := doReq(t, c, http.MethodGet, url, nil)
					if code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("GET %s: status %d", op.key, code)
						return
					}
					if op.absent = code == http.StatusNotFound; !op.absent {
						op.value = string(body)
					}
				}
				op.end = clock.Add(1)
				ops[w] = append(ops[w], op)
			}
		}(w)
	}
	wg.Wait()

	var writes []kvOp
	for _, wops := range ops {
		for _, op := range wops {
			if op.write {
				writes = append(writes, op)
			}
		}
	}
	for _, wops := range ops {
		for _, op := range wops {
			if !op.write && staleRead(op, writes) {
				t.Errorf("GET %s = %q (absent %v) at [%d,%d] is not the latest completed write", op.key, op.value, op.absent, op.start, op.end)
			}
		}
	}

	_, body := doReq(t, hs.Client(), http.MethodGet, hs.URL+"/statsz", nil)
	var snap statsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	t.Logf("/statsz queue: %+v", snap.Queue)
	if snap.Queue.Coalesced != 0 || snap.Queue.OnChip == 0 || snap.Errors != 0 {
		t.Fatalf("/statsz: queue %+v, %d errors; want no coalesced read, some served on chip, no errors", snap.Queue, snap.Errors)
	}
}

// gatedBackend holds the first ReadBucket after arm until release is
// closed, announcing on entered that a request is inside the engine.
type gatedBackend struct {
	store.Backend
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	closed  atomic.Bool
}

func (g *gatedBackend) ReadBucket(bucket int) ([][]byte, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Backend.ReadBucket(bucket)
}

func (g *gatedBackend) Close() error {
	g.closed.Store(true)
	return g.Backend.Close()
}

// TestShutdownDrainsInFlightRequests: a PUT already inside the engine when
// shutdown begins must still get its 204, and the backend is closed only
// after it.
func TestShutdownDrainsInFlightRequests(t *testing.T) {
	const level = 6
	back := &gatedBackend{
		Backend: store.NewMem(1<<(level+1)-1, oram.Default().Z),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv, err := newServer(level, func(int, int, int) (store.Backend, error) { return back, nil })
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.handler()}
	draining := make(chan struct{})
	hs.RegisterOnShutdown(func() { close(draining) })
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	back.armed.Store(true)
	status := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPut, "http://"+ln.Addr().String()+"/kv/k", strings.NewReader("v"))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("in-flight PUT: %v", err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-back.entered

	stopped := make(chan error, 1)
	go func() { stopped <- shutdown(hs, srv) }()
	<-draining
	if back.closed.Load() {
		t.Fatal("backend closed while a request was in flight")
	}
	close(back.release)

	if code := <-status; code != http.StatusNoContent {
		t.Fatalf("in-flight PUT: status %d, want 204", code)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if !back.closed.Load() {
		t.Fatal("shutdown left the backend open")
	}
}
