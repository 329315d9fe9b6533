// Command tracegen generates a synthetic workload trace and prints either
// the accesses themselves or summary statistics, for inspecting and
// calibrating the workload models.
//
// Usage:
//
//	tracegen -bench mcf -n 20 -dump
//	tracegen -bench hmmer -n 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shadowblock/internal/trace"
)

func main() {
	bench := flag.String("bench", "hmmer", "workload: "+strings.Join(trace.Names(), ", "))
	n := flag.Int("n", 10000, "references to generate")
	seed := flag.Uint64("seed", 7, "generator seed")
	dump := flag.Bool("dump", false, "print each access instead of the summary")
	flag.Parse()

	p, ok := trace.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	tr, err := p.Generate(*n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	if *dump {
		for i, a := range tr {
			kind := "R"
			if a.Write {
				kind = "W"
			}
			flags := ""
			if a.Dep {
				flags += " dep"
			}
			if a.NonTemporal {
				flags += " nt"
			}
			fmt.Printf("%6d %s %#08x gap=%d%s\n", i, kind, a.Block, a.Gap, flags)
		}
		return
	}

	var gaps, writes, deps, nt int64
	distinct := make(map[uint32]struct{})
	reuses := 0
	last := make(map[uint32]int)
	for i, a := range tr {
		gaps += int64(a.Gap)
		if a.Write {
			writes++
		}
		if a.Dep {
			deps++
		}
		if a.NonTemporal {
			nt++
		}
		if _, ok := last[a.Block]; ok {
			reuses++
		}
		last[a.Block] = i
		distinct[a.Block] = struct{}{}
	}
	fmt.Printf("benchmark        %s\n", p.Name)
	fmt.Printf("references       %d\n", len(tr))
	fmt.Printf("distinct blocks  %d (footprint %d)\n", len(distinct), p.FootprintBlocks)
	fmt.Printf("reuse fraction   %.3f\n", float64(reuses)/float64(len(tr)))
	fmt.Printf("mean gap         %.1f cycles\n", float64(gaps)/float64(len(tr)))
	fmt.Printf("write fraction   %.3f\n", float64(writes)/float64(len(tr)))
	fmt.Printf("dependent        %.3f\n", float64(deps)/float64(len(tr)))
	fmt.Printf("non-temporal     %.3f\n", float64(nt)/float64(len(tr)))
}
