package ring

import (
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/rng"
)

// TestRingRequestZeroAlloc is the Ring case of the steady-state allocation
// gate internal/oram/alloc_test.go holds the Path engine to: a warmed
// controller serves requests — reads, evictions and early reshuffles
// included — without allocating, with and without a shadow policy.
func TestRingRequestZeroAlloc(t *testing.T) {
	for _, name := range []string{"plain", "shadow"} {
		t.Run(name, func(t *testing.T) {
			c := MustNew(testConfig(), Classic, nil)
			if name == "shadow" {
				c = newShadowRing(t, testConfig(), core.Dynamic(3))
			}
			r := rng.NewXoshiro(42)
			n := uint64(c.NumDataBlocks())
			now := int64(0)
			i := 0
			step := func() {
				i++
				out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
				now = out.Done + 10
			}
			for i < 2000 {
				step()
			}
			reshuffles := c.Stats().Reshuffles
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("%.1f allocs per steady-state request, want 0", got)
			}
			if c.Stats().Reshuffles == reshuffles {
				t.Error("measured window saw no reshuffle; the gate does not cover it")
			}
		})
	}
}
