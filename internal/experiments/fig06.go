package experiments

import (
	"fmt"
	"math/bits"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/oram"
	"shadowblock/internal/stats"
	"shadowblock/internal/trace"
)

// MotivationFig reproduces Fig. 6: (a) sampled LLC-miss intervals of hmmer
// showing its period-to-period variation, and (b) the execution time of
// the run under RD-Dup, HD-Dup, and dynamic partitioning, sampled by miss
// index — the phased behaviour is what dynamic partitioning exploits.
type MotivationFig struct {
	Workload string
	// Intervals samples the gap (in cycles) before each of the first
	// 500 LLC misses.
	Intervals []int64
	// CyclesAt[scheme][i] = completion cycle at miss index (i+1)*Stride.
	Stride   int
	Schemes  []string
	CyclesAt [][]int64
}

type missRecorder struct {
	ctrl        *oram.Controller
	lastForward int64
	intervals   []int64
	doneAt      []int64
}

func (m *missRecorder) Issue(now int64, _ int, addr uint32, write bool) (int64, int64) {
	// The LLC-miss interval of Fig. 6a: compute time between receiving the
	// previous data and issuing the next miss.
	m.intervals = append(m.intervals, now-m.lastForward)
	out := m.ctrl.Request(now, addr, write)
	m.lastForward = out.Forward
	m.doneAt = append(m.doneAt, out.Done)
	return out.Forward, out.Done
}

// fig06 runs the motivation study on p (hmmer in the paper). Trace
// addresses map one-to-one onto ORAM data blocks, so a footprint larger
// than the data space is the error sim.Run returns, never a silent fold.
func fig06(r Runner, p trace.Profile) (*MotivationFig, error) {
	ocfg := oram.Default()
	if fp := p.FootprintBlocks; fp > ocfg.NumDataBlocks() {
		return nil, fmt.Errorf(
			"experiments: %s footprint (%d blocks) exceeds the ORAM data space (%d blocks at L=%d); need L >= %d or a scaled-down profile",
			p.Name, fp, ocfg.NumDataBlocks(), ocfg.L, bits.Len(uint(fp-1))-2)
	}
	tr, err := p.Generate(r.Refs, r.Seed)
	if err != nil {
		return nil, err
	}
	f := &MotivationFig{Workload: p.Name, Stride: 100, Schemes: []string{"rd-dup", "hd-dup", "dynamic-3"}}
	for i, pc := range []core.Config{core.RDOnly(), core.HDOnly(), core.Dynamic(3)} {
		ctrl, _, err := core.New(ocfg, pc)
		if err != nil {
			return nil, err
		}
		rec := &missRecorder{ctrl: ctrl}
		if _, err := cpu.RunSources(cpu.InOrder(), []trace.Source{trace.NewSliceSource(tr)}, rec); err != nil {
			return nil, err
		}
		if i == 0 {
			f.Intervals = rec.intervals[:min(len(rec.intervals), 500)]
		}
		var samples []int64
		for j := f.Stride - 1; j < len(rec.doneAt); j += f.Stride {
			samples = append(samples, rec.doneAt[j])
		}
		f.CyclesAt = append(f.CyclesAt, samples)
	}
	return f, nil
}

// prefix is the number of samples every scheme has.
func (f *MotivationFig) prefix() int {
	n := len(f.CyclesAt[0])
	for _, s := range f.CyclesAt {
		n = min(n, len(s))
	}
	return n
}

// Render produces a textual form of both panels.
func (f *MotivationFig) Render() string {
	t := stats.NewTable("miss-index", "interval(cycles)")
	for i := 0; i < len(f.Intervals); i += 25 {
		t.Row(fmt.Sprintf("%d", i), fmt.Sprintf("%d", f.Intervals[i]))
	}
	t2 := stats.NewTable(append([]string{"missx100"}, f.Schemes...)...)
	n := f.prefix()
	step := max(n/10, 1)
	for j := 0; j < n; j += step {
		row := []string{fmt.Sprintf("%d", j+1)}
		for _, s := range f.CyclesAt {
			row = append(row, fmt.Sprintf("%d", s[j]))
		}
		t2.Row(row...)
	}
	return "Fig 6a: sampled " + f.Workload + " LLC-miss intervals\n" + t.String() +
		"\nFig 6b: execution time by miss index under each scheme\n" + t2.String()
}
