package metrics

import (
	"sort"

	"shadowblock/internal/stats"
)

// DefaultWindowCycles is the epoch width used when the caller does not pick
// one: wide enough that a paper-scale run produces a few hundred points,
// narrow enough to show dynamic partitioning adapt within a run.
const DefaultWindowCycles = 1 << 18

// maxWindows caps a series' windows: a series that would open window
// maxWindows merges adjacent pairs and doubles its window width, so a
// long-running process keeps a bounded series at coarser resolution.
const maxWindows = 4096

// winAgg accumulates the observations of one epoch window (count 0: none
// yet, min and max unset).
type winAgg struct {
	count uint64
	sum   float64
	min   float64
	max   float64
}

// merge folds o into w: counts and sums add, the envelope widens.
func (w *winAgg) merge(o winAgg) {
	switch {
	case o.count == 0:
	case w.count == 0:
		*w = o
	default:
		w.count += o.count
		w.sum += o.sum
		if o.min < w.min {
			w.min = o.min
		}
		if o.max > w.max {
			w.max = o.max
		}
	}
}

// Series is one named cycle-windowed signal: every observation lands in the
// window floor(now/Window()), and each window keeps count/sum/min/max so
// the export can show both the mean trajectory and the envelope. A series
// holds at most maxWindows windows; past that its window doubles.
type Series struct {
	Name   string
	window int64
	wins   []winAgg
}

// Observe records value v at simulated cycle now.
func (s *Series) Observe(now int64, v float64) {
	if s == nil {
		return
	}
	now = max(now, 0)
	for now/s.window >= maxWindows {
		s.coarsen()
	}
	idx := int(now / s.window)
	for len(s.wins) <= idx {
		s.wins = append(s.wins, winAgg{})
	}
	s.wins[idx].merge(winAgg{count: 1, sum: v, min: v, max: v})
}

// coarsen doubles the window width, merging each adjacent pair of windows.
func (s *Series) coarsen() {
	for i := range s.wins {
		if i%2 == 0 {
			s.wins[i/2] = s.wins[i]
		} else {
			s.wins[i/2].merge(s.wins[i])
		}
	}
	s.wins = s.wins[:(len(s.wins)+1)/2]
	s.window *= 2
}

// Window returns the series' current window width in cycles.
func (s *Series) Window() int64 { return s.window }

// Point is one exported window of a series.
type Point struct {
	Start int64   `json:"start"` // first cycle of the window
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count uint64  `json:"count"`
}

// Points returns the non-empty windows in time order.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	var out []Point
	for i, w := range s.wins {
		if w.count == 0 {
			continue
		}
		out = append(out, Point{
			Start: int64(i) * s.window,
			Mean:  w.sum / float64(w.count),
			Min:   w.min,
			Max:   w.max,
			Count: w.count,
		})
	}
	return out
}

// SeriesSummary digests a series over its per-window means.
type SeriesSummary struct {
	Windows uint64  `json:"windows"`
	Mean    float64 `json:"mean"`
	Stddev  float64 `json:"stddev"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
}

// Summary digests the per-window means with the stats helpers: Mean and
// Stddev in window order, then Min, Max and P50 from the same slice sorted
// in place. An empty series summarises to zeroes (never NaN).
func (s *Series) Summary() SeriesSummary {
	if s == nil {
		return SeriesSummary{}
	}
	means := make([]float64, 0, len(s.wins))
	for _, w := range s.wins {
		if w.count > 0 {
			means = append(means, w.sum/float64(w.count))
		}
	}
	if len(means) == 0 {
		return SeriesSummary{}
	}
	sum := SeriesSummary{Windows: uint64(len(means)), Mean: stats.Mean(means), Stddev: stats.Stddev(means)}
	sort.Float64s(means)
	sum.Min, sum.Max, sum.P50 = means[0], means[len(means)-1], stats.Percentile(means, 0.5)
	return sum
}

// TimeSeries is an ordered registry of Series, each starting at window
// width Window.
type TimeSeries struct {
	Window int64
	list   []*Series
	byName map[string]*Series
}

// NewTimeSeries builds a registry with the given window width in cycles
// (<= 0 selects DefaultWindowCycles).
func NewTimeSeries(windowCycles int64) *TimeSeries {
	if windowCycles <= 0 {
		windowCycles = DefaultWindowCycles
	}
	return &TimeSeries{Window: windowCycles, byName: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use. Registration
// order is preserved in the export.
func (t *TimeSeries) Series(name string) *Series {
	if t == nil {
		return nil
	}
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := &Series{Name: name, window: t.Window}
	t.byName[name] = s
	t.list = append(t.list, s)
	return s
}

// All returns every registered series in registration order.
func (t *TimeSeries) All() []*Series {
	if t == nil {
		return nil
	}
	return t.list
}
