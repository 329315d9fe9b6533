package oram

import (
	"testing"

	"shadowblock/internal/rng"
)

func decoupledConfig() Config {
	cfg := testConfig()
	cfg.WBDecoupled = true
	return cfg
}

// TestDecoupledInvariantsAndAccounting drives a decoupled controller
// through a long random run, checking the scheduler's structural
// invariants at quiescent points throughout, then drains and verifies the
// retirement accounting closes with nothing left queued.
func TestDecoupledInvariantsAndAccounting(t *testing.T) {
	cfg := decoupledConfig()
	cfg.Pipeline = true
	c := MustNew(cfg, nil)
	r := rng.NewXoshiro(23)
	space := uint64(c.NumDataBlocks())
	var now int64
	for i := 0; i < 1500; i++ {
		out := c.Request(now, uint32(r.Uint64n(space)), i%3 == 0)
		now = out.Done + int64(r.Uint64n(300))
		if i%100 == 0 {
			if err := c.CheckWritebackInvariants(); err != nil {
				t.Fatalf("after request %d: %v", i, err)
			}
		}
	}
	st := c.Stats()
	if st.WBEnqueued == 0 {
		t.Fatal("decoupled run enqueued no writebacks")
	}
	if st.WBForced == 0 {
		// The root bucket is on every path, so the first path read after
		// any eviction must force-retire the root's queued write: a run
		// with evictions but no forced retires means the conflict rule
		// (write lands before its bucket's next read) never fired.
		t.Fatal("no conflict/starvation retires in a run with evictions")
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Closed accounting, with the walker's enqueued = retired + pending,
	// leaves nothing queued.
	c.Drain()
	st = c.Stats()
	if st.WBEnqueued != st.WBSlotted+st.WBForced+st.WBFlushed {
		t.Fatalf("retirement accounting open after Drain: %d enqueued, %d+%d+%d retired",
			st.WBEnqueued, st.WBSlotted, st.WBForced, st.WBFlushed)
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoupledSameDRAMTraffic pins that deferral only moves reservations
// in time: the decoupled engine performs exactly the DRAM read and write
// operations the coupled one does, and the same number of evictions.
func TestDecoupledSameDRAMTraffic(t *testing.T) {
	run := func(cfg Config) (Stats, uint64, uint64) {
		c := MustNew(cfg, nil)
		r := rng.NewXoshiro(77)
		space := uint64(c.NumDataBlocks())
		var now int64
		for i := 0; i < 800; i++ {
			out := c.Request(now, uint32(r.Uint64n(space)), i%4 == 0)
			now = out.Done + 50
		}
		c.Drain()
		m := c.MemStats()
		return c.Stats(), m.Reads, m.Writes
	}
	base, br, bw := run(testConfig())
	dec, dr, dw := run(decoupledConfig())
	if br != dr || bw != dw {
		t.Fatalf("DRAM traffic differs: coupled %d reads/%d writes, decoupled %d/%d", br, bw, dr, dw)
	}
	if base.EvictionPhases != dec.EvictionPhases || base.ORAMAccesses != dec.ORAMAccesses {
		t.Fatalf("access counts differ: coupled %d evictions/%d accesses, decoupled %d/%d",
			base.EvictionPhases, base.ORAMAccesses, dec.EvictionPhases, dec.ORAMAccesses)
	}
}

// TestQueueSameCycleOrderWithDecoupledWritebacks is the front end's
// arbitration property under the decoupled scheduler: coalesced misses and
// deferred writebacks must never reorder two same-cycle demand requests
// across cores. Requests present in deterministic (cycle, core) order; the
// ones that reach the memory system must be *served* in that same order
// (nondecreasing forward cycles), with or without the scheduler, and the
// touch traces must match event-for-event.
func TestQueueSameCycleOrderWithDecoupledWritebacks(t *testing.T) {
	const cores, rounds = 4, 120
	type result struct {
		forwards []int64 // serve order of requests that reached the controller
		events   []Event
	}
	run := func(cfg Config) result {
		ctrl := MustNew(cfg, nil)
		var res result
		ctrl.SetObserver(func(e Event) { res.events = append(res.events, e) })
		q := NewQueue(ctrl, cores)
		r := rng.NewXoshiro(41)
		space := uint64(ctrl.NumDataBlocks())
		for i := 0; i < rounds; i++ {
			now := int64(i) * 2500
			// A shared hot address every few rounds makes same-cycle
			// presentations coalesce; the rest are distinct demand misses.
			hot := uint32(r.Uint64n(space))
			for core := 0; core < cores; core++ {
				addr := uint32(r.Uint64n(space))
				if i%3 == 0 && core%2 == 1 {
					addr = hot
				}
				before := ctrl.Stats().Requests
				fwd, _ := q.Issue(now, core, addr, false)
				if ctrl.Stats().Requests > before {
					// Reached the controller (not coalesced, not on-chip).
					res.forwards = append(res.forwards, fwd)
				}
			}
		}
		return res
	}

	coupled := run(testConfig())
	decoupled := run(decoupledConfig())

	for name, res := range map[string]result{"coupled": coupled, "decoupled": decoupled} {
		for i := 1; i < len(res.forwards); i++ {
			if res.forwards[i] < res.forwards[i-1] {
				t.Fatalf("%s: request %d served before its predecessor (forward %d < %d): presentation order broken",
					name, i, res.forwards[i], res.forwards[i-1])
			}
		}
	}
	if len(coupled.forwards) != len(decoupled.forwards) {
		t.Fatalf("different request counts reached the controller: %d coupled, %d decoupled",
			len(coupled.forwards), len(decoupled.forwards))
	}
	if len(coupled.events) != len(decoupled.events) {
		t.Fatalf("trace lengths differ: %d coupled, %d decoupled", len(coupled.events), len(decoupled.events))
	}
	for i := range coupled.events {
		if coupled.events[i].Kind != decoupled.events[i].Kind || coupled.events[i].Leaf != decoupled.events[i].Leaf {
			t.Fatalf("event %d diverges: %+v vs %+v", i, coupled.events[i], decoupled.events[i])
		}
	}
}

// TestCoupledControllerWritebackAPIInert pins the API contract for the
// coupled engines: the scheduler accessors are safe no-ops.
func TestCoupledControllerWritebackAPIInert(t *testing.T) {
	c := MustNew(testConfig(), nil)
	c.wbPump(1000)
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.WBEnqueued != 0 || st.WBSlotted != 0 {
		t.Fatalf("coupled controller counted writeback scheduling: %+v", st)
	}
}
