// ringcompare demonstrates the paper's generality claim (§II-C): the same
// shadow-block policy that accelerates Tiny ORAM plugs into Ring ORAM,
// whose dummy-slot budget (S per bucket) gives shadows a natural home.
//
// Both controllers are driven through the public engine seam
// (oram.Engine), the same interface the simulator and the benchmarks use —
// the example carries no Ring-specific driver code, only the workload and
// the comparison. They are built with ring.New, whose concrete type also
// offers Ring's own counters and invariant check.
package main

import (
	"fmt"

	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/ring"
	"shadowblock/internal/rng"
)

func drive(eng oram.Engine) int64 {
	space := uint64(eng.NumDataBlocks())
	r := rng.NewXoshiro(42)
	now := int64(0)
	for i := 0; i < 4000; i++ {
		addr := uint32(r.Uint64n(space))
		if i%3 == 0 {
			addr = uint32(r.Uint64n(64)) // hot core
		}
		out := eng.Request(now, addr, i%4 == 0)
		now = out.Forward + 400
	}
	return now
}

func main() {
	cfg := ring.Default()
	cfg.L = 12

	plain, err := ring.New(cfg, nil)
	if err != nil {
		panic(err)
	}
	plainEnd := drive(plain)

	pol, err := core.NewUnbound(core.Dynamic(3))
	if err != nil {
		panic(err)
	}
	shadow, err := ring.New(cfg, pol) // binds pol to its geometry and stash
	if err != nil {
		panic(err)
	}
	shadowEnd := drive(shadow)

	ps := plain.RingStats()
	ss := shadow.RingStats()
	fmt.Printf("Ring ORAM        %10d cycles (%d reads, %d reshuffles)\n", plainEnd, ps.Reads, ps.Reshuffles)
	fmt.Printf("Shadow Ring      %10d cycles (%d shadow hits, %d early forwards)\n",
		shadowEnd, ss.ShadowStashHits, ss.ShadowForwards)
	fmt.Printf("Speedup          %.3fx\n", float64(plainEnd)/float64(shadowEnd))

	if err := shadow.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Println("Ring invariants hold with duplication enabled")
}
