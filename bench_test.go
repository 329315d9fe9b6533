package shadowblock

// One benchmark over the experiment registry: every table and figure of
// the paper's evaluation (§VI) at reduced scale — three representative
// workloads, short traces — with each numeric table's summary row (its
// gmean or mean per column) reported as custom metrics, so `go test
// -bench=.` gives a quick shape check; cmd/paperbench regenerates the
// figures at full scale.

import (
	"testing"

	"shadowblock/internal/experiments"
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

func BenchmarkExperiments(b *testing.B) {
	r := benchRunner()
	for _, e := range experiments.Registry(nil) {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(r)
				if err != nil {
					b.Fatal(err)
				}
				t, ok := res.(*experiments.Table)
				if !ok || t.SummaryRow == "" {
					continue
				}
				for c, v := range t.Summary() {
					b.ReportMetric(v, t.Columns[c].Name)
				}
			}
		})
	}
}
