package oram

import (
	"testing"

	"shadowblock/internal/rng"
)

// Steady-state allocation regression gates. The request path is the
// simulator's innermost loop — paperbench walks it hundreds of millions of
// times — so any per-access allocation is a wall-clock and GC regression.
// These tests pin it at exactly zero for every engine binding; the
// benchmarks in perf_test.go report the same number per op.

// allocsOnPath measures allocations per request on a warmed controller
// driven through fn.
func allocsOnPath(t *testing.T, cfg Config, fn func(c *Controller, r *rng.Xoshiro, now int64) int64) float64 {
	t.Helper()
	c, r, now := warmController(t, cfg)
	return testing.AllocsPerRun(200, func() {
		now = fn(c, r, now)
	})
}

func TestControllerRequestZeroAlloc(t *testing.T) {
	engines := []struct {
		name string
		mut  func(*Config)
	}{
		{"serial", func(*Config) {}},
		{"channels", func(c *Config) { c.Channels = 4 }},
		{"wbd", func(c *Config) { c.Channels = 4; c.WBDecoupled = true }},
		{"xor", func(c *Config) { c.XOR = true }},
		{"timing-protection", func(c *Config) { c.TimingProtection = true }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			cfg := perfConfig()
			e.mut(&cfg)
			i := 0
			got := allocsOnPath(t, cfg, func(c *Controller, r *rng.Xoshiro, now int64) int64 {
				i++
				out := c.Request(now, uint32(r.Uint64n(uint64(cfg.NumDataBlocks()))), i%4 == 0)
				return out.Done + 10
			})
			if got != 0 {
				t.Errorf("%s: %.1f allocs per steady-state request, want 0", e.name, got)
			}
		})
	}
}

func TestQueueIssueZeroAlloc(t *testing.T) {
	cfg := perfConfig()
	c, r, now := warmController(t, cfg)
	q := NewQueue(c, 4)
	n := uint64(cfg.NumDataBlocks())
	// Warm the queue's MSHR slice to its steady-state capacity.
	for i := 0; i < 256; i++ {
		_, done := q.Issue(now, i%4, uint32(r.Uint64n(n)), i%4 == 0)
		now = done + 10
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		i++
		_, done := q.Issue(now, i%4, uint32(r.Uint64n(n)), i%4 == 0)
		now = done + 10
	})
	if got != 0 {
		t.Errorf("%.1f allocs per steady-state queue issue, want 0", got)
	}
}

// TestFunctionalQueueAllocs: behind the queue, as shadowd serves, a
// functional write allocates nothing — payloads come from the engine's
// pool — and a read only the copy it returns.
func TestFunctionalQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, crypt's pooled CTR scratch is dropped at random, so Open allocates")
	}
	cfg := perfConfig()
	cfg.Functional = true
	c, r, now := warmController(t, cfg)
	q := NewQueue(c, 2)
	n := uint64(cfg.NumDataBlocks())
	value := []byte("functional-queue-value")
	writes := testing.AllocsPerRun(500, func() {
		out, err := q.Write(now, 0, uint32(r.Uint64n(n)), value)
		if err != nil {
			t.Fatal(err)
		}
		now = out.Done + 10
	})
	reads := testing.AllocsPerRun(500, func() {
		_, out := q.Read(now, 1, uint32(r.Uint64n(n)))
		now = out.Done + 10
	})
	if writes != 0 || reads != 1 {
		t.Errorf("%.1f allocs per functional write, %.1f per read; want 0 and 1", writes, reads)
	}
}
