package shadowblock

// One benchmark per table/figure of the paper's evaluation (§VI). Each
// runs its experiment at reduced scale — three representative workloads,
// short traces — and reports the figure's headline number as a custom
// metric, so `go test -bench=.` gives a quick shape check; cmd/paperbench
// regenerates the figures at full scale.

import (
	"testing"

	"shadowblock/internal/experiments"
	"shadowblock/internal/stats"
	"shadowblock/internal/trace"
)

func benchRunner() experiments.Runner {
	var wl []trace.Profile
	for _, n := range []string{"mcf", "namd", "hmmer"} {
		p, ok := trace.ByName(n)
		if !ok {
			panic("missing profile " + n)
		}
		wl = append(wl, p)
	}
	return experiments.Runner{Refs: 4000, Seed: 7, Workloads: wl}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableI() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig06(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig06(r)
		if err != nil {
			b.Fatal(err)
		}
		fc := f.FinalCycles()
		b.ReportMetric(float64(fc[2])/float64(fc[0]), "dyn/rd-cycles")
	}
}

func BenchmarkFig08(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig08(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Gmean(d.Totals("rd-dup")), "rd-total")
		b.ReportMetric(stats.Gmean(d.Totals("hd-dup")), "hd-total")
	}
}

func BenchmarkFig09(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		ps, err := experiments.Fig09(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ps.BestTotal, "best-total")
		b.ReportMetric(float64(ps.BestLevel), "best-level")
	}
}

func BenchmarkFig10(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Fig10(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cs.BestTotal, "best-total")
		b.ReportMetric(float64(cs.BestWidth), "best-width")
	}
}

func BenchmarkFig11(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig11(r)
		if err != nil {
			b.Fatal(err)
		}
		g := s.Gmeans()
		b.ReportMetric(g[0], "tiny-slowdown")
		b.ReportMetric(g[2], "dynamic3-slowdown")
	}
}

func BenchmarkFig12(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		e, err := experiments.Fig12(r)
		if err != nil {
			b.Fatal(err)
		}
		g := e.Gmeans()
		b.ReportMetric(g[0], "tiny-energy")
		b.ReportMetric(g[2], "dynamic3-energy")
	}
}

func BenchmarkFig13(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig13(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Gmean(d.Totals("rd-dup")), "rd-total")
		b.ReportMetric(stats.Gmean(d.Totals("hd-dup")), "hd-total")
	}
}

func BenchmarkFig14(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		ps, err := experiments.Fig14(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ps.BestTotal, "best-total")
		b.ReportMetric(float64(ps.BestLevel), "best-level")
	}
}

func BenchmarkFig15(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig15(r)
		if err != nil {
			b.Fatal(err)
		}
		g := s.Gmeans()
		b.ReportMetric(g[0], "tiny-slowdown")
		b.ReportMetric(g[2], "dynamic3-slowdown")
	}
}

func BenchmarkFig16(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		h, err := experiments.Fig16(r)
		if err != nil {
			b.Fatal(err)
		}
		m := h.Means()
		b.ReportMetric(m[0], "treetop3-hit")
		b.ReportMetric(m[1], "shadow-treetop3-hit")
	}
}

func BenchmarkFig17(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		sp, err := experiments.Fig17(r)
		if err != nil {
			b.Fatal(err)
		}
		g := sp.Gmeans()
		b.ReportMetric(g[0], "xor-speedup")
		b.ReportMetric(g[1], "shadow-speedup")
		b.ReportMetric(g[3], "shadow-treetop7-speedup")
	}
}

func BenchmarkFig18(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig18(r)
		if err != nil {
			b.Fatal(err)
		}
		gi, go3 := f.Gmeans()
		b.ReportMetric(gi, "inorder-speedup")
		b.ReportMetric(go3, "o3-speedup")
	}
}

func BenchmarkFig19(b *testing.B) {
	r := benchRunner()
	r.Refs = 3000
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig19(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Speedups[0], "speedup-1GB")
		b.ReportMetric(s.Speedups[len(s.Speedups)-1], "speedup-16GB")
	}
}

func BenchmarkAblation(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		a, err := experiments.Ablation(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Gmean(a.Full), "full")
		b.ReportMetric(stats.Gmean(a.ForwardOnly), "forward-only")
	}
}

func BenchmarkRingMatrix(b *testing.B) {
	r := benchRunner()
	r.Refs = 3000
	for i := 0; i < b.N; i++ {
		f, err := experiments.EngineMatrix(r, experiments.RingSchemes())
		if err != nil {
			b.Fatal(err)
		}
		var speedup, blocks []float64
		for _, row := range f.Cells {
			blocks = append(blocks, row[0].BlocksPerReq) // ring:tiny
			speedup = append(speedup, row[1].Speedup)    // ring:dynamic-3 over ring:tiny
		}
		b.ReportMetric(stats.Gmean(speedup), "ring-shadow-speedup")
		b.ReportMetric(stats.Mean(blocks), "ring-blk/req")
	}
}

func BenchmarkOccupancy(b *testing.B) {
	r := benchRunner()
	r.Refs = 3000
	for i := 0; i < b.N; i++ {
		f, err := experiments.Occupancy(r)
		if err != nil {
			b.Fatal(err)
		}
		eq := 0.0
		if f.AllEqualTiny() {
			eq = 1.0
		}
		b.ReportMetric(eq, "rule3-equal")
	}
}
