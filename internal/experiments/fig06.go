package experiments

import (
	"fmt"

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
	// Intervals samples the gap (in cycles) before each of the first
	// SampleN LLC misses.
	Intervals []int64
	// CyclesAt[scheme][i] = completion cycle at miss index (i+1)*Stride.
	Stride   int
	Schemes  []string
	CyclesAt [][]int64
}

type missRecorder struct {
	ctrl        *oram.Controller
	space       uint32
	lastForward int64
	intervals   []int64
	doneAt      []int64
}

func (m *missRecorder) Issue(now int64, _ int, addr uint32, write bool) (int64, int64) {
	// The LLC-miss interval of Fig. 6a: compute time between receiving the
	// previous data and issuing the next miss.
	m.intervals = append(m.intervals, now-m.lastForward)
	out := m.ctrl.Request(now, addr%m.space, write)
	m.lastForward = out.Forward
	m.doneAt = append(m.doneAt, out.Done)
	return out.Forward, out.Done
}

// Fig06 runs the motivation study on hmmer.
func Fig06(r Runner) (*MotivationFig, error) {
	p, ok := trace.ByName("hmmer")
	if !ok {
		return nil, fmt.Errorf("experiments: hmmer profile missing")
	}
	tr, err := p.Generate(r.Refs, r.Seed)
	if err != nil {
		return nil, err
	}
	f := &MotivationFig{Stride: 100, Schemes: []string{"rd-dup", "hd-dup", "dynamic-3"}}
	cfgs := []core.Config{core.RDOnly(), core.HDOnly(), core.Dynamic(3)}
	for i, pc := range cfgs {
		ctrl, _, err := core.New(oram.Default(), pc)
		if err != nil {
			return nil, err
		}
		rec := &missRecorder{ctrl: ctrl, space: uint32(ctrl.NumDataBlocks())}
		if _, err := cpu.RunSources(cpu.InOrder(), []trace.Source{trace.NewSliceSource(tr)}, rec); err != nil {
			return nil, err
		}
		if i == 0 {
			n := len(rec.intervals)
			if n > 500 {
				n = 500
			}
			f.Intervals = rec.intervals[:n]
		}
		var samples []int64
		for j := f.Stride - 1; j < len(rec.doneAt); j += f.Stride {
			samples = append(samples, rec.doneAt[j])
		}
		f.CyclesAt = append(f.CyclesAt, samples)
	}
	return f, nil
}

// FinalCycles returns each scheme's completion time of the common sampled
// prefix.
func (f *MotivationFig) FinalCycles() []int64 {
	n := len(f.CyclesAt[0])
	for _, s := range f.CyclesAt {
		if len(s) < n {
			n = len(s)
		}
	}
	out := make([]int64, len(f.CyclesAt))
	for i, s := range f.CyclesAt {
		out[i] = s[n-1]
	}
	return out
}

// Render produces a textual form of both panels.
func (f *MotivationFig) Render() string {
	t := stats.NewTable("miss-index", "interval(cycles)")
	for i := 0; i < len(f.Intervals); i += 25 {
		t.Row(fmt.Sprintf("%d", i), fmt.Sprintf("%d", f.Intervals[i]))
	}
	t2 := stats.NewTable(append([]string{"missx100"}, f.Schemes...)...)
	n := len(f.CyclesAt[0])
	for _, s := range f.CyclesAt {
		if len(s) < n {
			n = len(s)
		}
	}
	step := n / 10
	if step == 0 {
		step = 1
	}
	for j := 0; j < n; j += step {
		row := []string{fmt.Sprintf("%d", (j + 1))}
		for _, s := range f.CyclesAt {
			row = append(row, fmt.Sprintf("%d", s[j]))
		}
		t2.Row(row...)
	}
	return "Fig 6a: sampled hmmer LLC-miss intervals\n" + t.String() +
		"\nFig 6b: execution time by miss index under each scheme\n" + t2.String()
}
