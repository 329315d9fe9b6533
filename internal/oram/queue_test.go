package oram

import (
	"sync"
	"testing"

	"shadowblock/internal/metrics"
	"shadowblock/internal/rng"
)

// TestQueueSingleCoreMatchesController: when requests are spaced the way an
// in-order core issues them — never before the previous data returned — the
// queue is a transparent wrapper and returns exactly the controller's
// timings.
func TestQueueSingleCoreMatchesController(t *testing.T) {
	direct := MustNew(testConfig(), nil)
	queued := MustNew(testConfig(), nil)
	q := NewQueue(queued, 1)

	r := rng.NewXoshiro(55)
	space := uint64(direct.NumDataBlocks())
	var nowD, nowQ int64
	for i := 0; i < 300; i++ {
		addr := uint32(r.Uint64n(space))
		write := r.Float64() < 0.3
		out := direct.Request(nowD, addr, write)
		fwd, done := q.Issue(nowQ, 0, addr, write)
		if fwd != out.Forward || done != out.Done {
			t.Fatalf("request %d: queue (%d,%d) vs controller (%d,%d)",
				i, fwd, done, out.Forward, out.Done)
		}
		nowD = out.Forward + 5
		nowQ = fwd + 5
	}
	if st := q.Stats(); st.Coalesced != 0 {
		t.Fatalf("in-order-spaced stream coalesced %d requests", st.Coalesced)
	}
}

// TestQueueCoalescesInflightSameAddress: a secondary miss on an address
// whose primary is still in flight must share the primary's data-return
// cycle instead of reaching the controller — the data is physically still
// in DRAM, an instant stash hit would be wrong.
func TestQueueCoalescesInflightSameAddress(t *testing.T) {
	ctrl := MustNew(testConfig(), nil)
	q := NewQueue(ctrl, 4)
	col := metrics.New(metrics.Options{})
	q.SetMetrics(col)

	fwd0, done0 := q.Issue(0, 0, 7, false)
	if fwd0 <= 0 {
		t.Fatalf("primary miss forwarded at %d", fwd0)
	}
	reqs := ctrl.Stats().Requests

	fwd1, done1 := q.Issue(1, 2, 7, true)
	if fwd1 != fwd0 || done1 != done0 {
		t.Fatalf("secondary got (%d,%d), want the primary's (%d,%d)", fwd1, done1, fwd0, done0)
	}
	if got := ctrl.Stats().Requests; got != reqs {
		t.Fatalf("secondary reached the controller: %d requests, want %d", got, reqs)
	}
	st := q.Stats()
	if st.Coalesced != 1 || st.Issued != 1 {
		t.Fatalf("stats = %+v, want 1 issued, 1 coalesced", st)
	}
	if col.Counter("queue.coalesced") != 1 || col.Counter("queue.issued") != 1 {
		t.Fatalf("counters: issued=%d coalesced=%d, want 1/1",
			col.Counter("queue.issued"), col.Counter("queue.coalesced"))
	}

	// Past the primary's forward the line is in the stash: a re-reference
	// is the controller's business again, not a coalesce.
	fwd2, _ := q.Issue(fwd0+1, 1, 7, false)
	if fwd2 == fwd0 {
		t.Fatal("re-reference after forward still coalesced")
	}
	if st := q.Stats(); st.Coalesced != 1 {
		t.Fatalf("late re-reference coalesced: %+v", st)
	}
}

// TestQueueDepthTracksInflight exercises Depth and MaxDepth over a burst of
// distinct-address misses.
func TestQueueDepthTracksInflight(t *testing.T) {
	ctrl := MustNew(testConfig(), nil)
	q := NewQueue(ctrl, 4)
	var lastFwd int64
	for i := 0; i < 4; i++ {
		lastFwd, _ = q.Issue(int64(i), i, uint32(100+i), false)
	}
	if d := q.Depth(4); d == 0 {
		t.Fatal("no MSHRs in flight after a burst")
	}
	if st := q.Stats(); st.MaxDepth < 1 {
		t.Fatalf("MaxDepth = %d after a burst", st.MaxDepth)
	}
	if d := q.Depth(lastFwd + 1); d != 0 {
		t.Fatalf("%d MSHRs still live after every forward passed", d)
	}
}

// TestFunctionalRequestsOpenNoMSHR: functional Read and Write never
// coalesce, so they open no MSHR. They still count as issued or on-chip
// and observe their latency, while Depth and MaxDepth describe Issue
// traffic only — here none.
func TestFunctionalRequestsOpenNoMSHR(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	q := NewQueue(MustNew(cfg, nil), 2)
	col := metrics.New(metrics.Options{})
	q.SetMetrics(col)

	r := rng.NewXoshiro(9)
	n := uint64(cfg.NumDataBlocks())
	var now int64
	for i := 0; i < 200; i++ {
		addr := uint32(r.Uint64n(n))
		var out Outcome
		if i%2 == 0 {
			_, out = q.Read(now, i%2, addr)
		} else {
			var err error
			if out, err = q.Write(now, i%2, addr, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Present the next request before this one forwards: an entry
		// opened here would still be live then.
		now = max(now+1, out.Forward-1)
		if d := q.Depth(now); d != 0 {
			t.Fatalf("request %d: %d MSHRs in flight after functional requests", i, d)
		}
	}
	st := q.Stats()
	if st.MaxDepth != 0 || st.Issued == 0 || st.Issued+st.OnChip != 200 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want MaxDepth 0 and 200 issued or on-chip", st)
	}
	if col.Counter("queue.issued") != st.Issued || col.Counter("queue.onchip") != st.OnChip {
		t.Fatalf("counters issued=%d onchip=%d, stats %+v",
			col.Counter("queue.issued"), col.Counter("queue.onchip"), st)
	}
}

// TestQueueConcurrentIssue hammers one shared queue from many goroutines so
// the race detector can see the lock discipline. The simulator itself is
// single-threaded; this pins that the front end stays safe for concurrent
// callers anyway.
func TestQueueConcurrentIssue(t *testing.T) {
	ctrl := MustNew(testConfig(), nil)
	q := NewQueue(ctrl, 8)
	q.SetMetrics(nil)
	space := uint64(ctrl.NumDataBlocks())

	var wg sync.WaitGroup
	for core := 0; core < 8; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			r := rng.NewXoshiro(uint64(1000 + core))
			now := int64(core)
			for i := 0; i < 50; i++ {
				fwd, done := q.Issue(now, core, uint32(r.Uint64n(space)), r.Float64() < 0.3)
				if fwd > done {
					t.Errorf("core %d: forward %d after done %d", core, fwd, done)
					return
				}
				now = fwd + int64(r.Uint64n(100))
			}
		}(core)
	}
	// Readers race the writers on purpose.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			q.Stats()
			q.Depth(int64(i) * 50)
		}
	}()
	wg.Wait()

	st := q.Stats()
	if st.Issued+st.OnChip+st.Coalesced != 8*50 {
		t.Fatalf("requests lost: %+v sums to %d, want %d", st, st.Issued+st.OnChip+st.Coalesced, 8*50)
	}
	if err := ctrl.CheckInvariants(); err != nil {
		t.Fatalf("controller invariants broken after concurrent issue: %v", err)
	}
}

// TestQueueRejectsBadArgs pins the constructor and core-range guards.
func TestQueueRejectsBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQueue(ctrl, 0) did not panic")
		}
	}()
	NewQueue(MustNew(testConfig(), nil), 0)
}
