package oram

import (
	"testing"

	"shadowblock/internal/rng"
)

// Hot-path performance pins. The simulator's wall-clock is dominated by the
// controller request path (every LLC miss walks it, and each posmap level
// multiplies it), so these benchmarks report allocs/op and the companion
// tests in alloc_test.go gate steady-state allocations at zero.

// perfConfig is a small-but-real geometry: deep enough to exercise the
// recursive posmap, the PLB, eviction phases and shadow duplication, small
// enough that constructing the controller stays cheap.
func perfConfig() Config {
	cfg := Default()
	cfg.L = 10
	cfg.StashCapacity = 120
	return cfg
}

// warmController builds a controller and drives it past the cold-start
// region (PLB fills, stash converges, every scratch buffer reaches its
// steady-state capacity).
func warmController(tb testing.TB, cfg Config) (*Controller, *rng.Xoshiro, int64) {
	tb.Helper()
	c, err := New(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.NewXoshiro(42)
	n := uint64(cfg.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 2000; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
	return c, r, now
}

func BenchmarkControllerRequest(b *testing.B) {
	c, r, now := warmController(b, perfConfig())
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkControllerRequestWBD(b *testing.B) {
	cfg := perfConfig()
	cfg.WBDecoupled = true
	c, r, now := warmController(b, cfg)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkControllerRequestChannels(b *testing.B) {
	cfg := perfConfig()
	cfg.Channels = 4
	c, r, now := warmController(b, cfg)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkQueueIssue(b *testing.B) {
	c, r, now := warmController(b, perfConfig())
	q := NewQueue(c, 4)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, done := q.Issue(now, i%4, uint32(r.Uint64n(n)), i%4 == 0)
		now = done + 10
	}
}

// functionalBench runs fn against a warmed functional controller over the
// in-memory and the file backend: the path shadowd serves from, where sealing, the backend seam and payload allocation do the work.
func functionalBench(b *testing.B, fn func(c *Controller, now int64, addr uint32) int64) {
	for _, name := range []string{"mem", "file"} {
		b.Run(name, func(b *testing.B) {
			cfg := perfConfig()
			cfg.Functional = true
			backs := functionalBackends(b, cfg)
			defer func() {
				for _, back := range backs {
					back.Close()
				}
			}()
			cfg.Store = backs[name]
			c, r, now := warmController(b, cfg)
			n := uint64(c.NumDataBlocks())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = fn(c, now, uint32(r.Uint64n(n)))
			}
		})
	}
}

func BenchmarkFunctionalWrite(b *testing.B) {
	payload := []byte("functional-write-benchmark-value")
	functionalBench(b, func(c *Controller, now int64, addr uint32) int64 {
		out, err := c.WriteBlock(now, addr, payload)
		if err != nil {
			b.Fatal(err)
		}
		return out.Done + 10
	})
}

func BenchmarkFunctionalRead(b *testing.B) {
	functionalBench(b, func(c *Controller, now int64, addr uint32) int64 {
		_, out := c.ReadBlock(now, addr)
		return out.Done + 10
	})
}

// BenchmarkEngineConstruct times building a controller: label fill,
// initial placement and, in functional mode, the storage seam's set-up.
// Construction writes nothing to the backend, so functional construction
// costs what timing construction does plus the crypt engine and backend.
func BenchmarkEngineConstruct(b *testing.B) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"timing-L18", Default},
		{"functional-mem-L12", func() Config {
			cfg := Default()
			cfg.L = 12
			cfg.Functional = true
			return cfg
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
