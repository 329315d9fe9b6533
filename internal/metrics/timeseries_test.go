package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"shadowblock/internal/stats"
)

func TestSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(100)
	s := ts.Series("x")
	s.Observe(0, 1)
	s.Observe(99, 3)   // same window
	s.Observe(250, 10) // window 2; window 1 stays empty
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (empty windows skipped)", len(pts))
	}
	if pts[0].Start != 0 || pts[0].Count != 2 || pts[0].Mean != 2 || pts[0].Min != 1 || pts[0].Max != 3 {
		t.Fatalf("window 0 wrong: %+v", pts[0])
	}
	if pts[1].Start != 200 || pts[1].Count != 1 || pts[1].Mean != 10 {
		t.Fatalf("window 2 wrong: %+v", pts[1])
	}
}

func TestSeriesMinMaxWithNegatives(t *testing.T) {
	ts := NewTimeSeries(10)
	s := ts.Series("neg")
	s.Observe(1, -5)
	s.Observe(2, -7)
	pts := s.Points()
	if pts[0].Min != -7 || pts[0].Max != -5 {
		t.Fatalf("negative envelope wrong: %+v", pts[0])
	}
}

func TestSeriesSummaryUsesWindowMeans(t *testing.T) {
	ts := NewTimeSeries(10)
	s := ts.Series("x")
	s.Observe(5, 2)  // window 0 mean 2
	s.Observe(15, 4) // window 1 mean 4
	s.Observe(25, 6) // window 2 mean 6
	sum := s.Summary()
	if sum.Windows != 3 || sum.Mean != 4 || sum.Min != 2 || sum.Max != 6 || sum.P50 != 4 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if math.Abs(sum.Stddev-math.Sqrt(8.0/3)) > 1e-9 {
		t.Fatalf("stddev wrong: %g", sum.Stddev)
	}
}

func TestSeriesEmptyAndNil(t *testing.T) {
	var s *Series
	s.Observe(0, 1) // must not panic
	if s.Points() != nil {
		t.Fatal("nil series has points")
	}
	var ts *TimeSeries
	if ts.Series("x") != nil || ts.All() != nil {
		t.Fatal("nil registry not inert")
	}
	empty := NewTimeSeries(0).Series("e")
	if sum := empty.Summary(); sum != (SeriesSummary{}) {
		t.Fatalf("empty summary not zero: %+v", sum)
	}
}

func TestRegistryOrderAndDedup(t *testing.T) {
	ts := NewTimeSeries(0)
	if ts.Window != DefaultWindowCycles {
		t.Fatalf("default window = %d", ts.Window)
	}
	a := ts.Series("a")
	ts.Series("b")
	if ts.Series("a") != a {
		t.Fatal("re-registration created a new series")
	}
	all := ts.All()
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatalf("registration order lost: %v", all)
	}
}

func TestCollectorCountersAndNil(t *testing.T) {
	var nilC *Collector
	nilC.Count("x", 1)
	nilC.Observe("y", 0, 1)
	if nilC.Report(1, nil) != nil {
		t.Fatal("nil collector not inert")
	}
	c := New(Options{})
	c.Count("x", 2)
	c.Count("x", 3)
	if got := c.Report(1, nil).Counters["x"]; got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if c.Trace != nil {
		t.Fatal("tracing on without request")
	}
	if New(Options{Tracing: true}).Trace == nil {
		t.Fatal("tracing not enabled")
	}
}

func TestReportSkipsEmptySections(t *testing.T) {
	c := New(Options{})
	r := c.Report(123, map[string]string{"bench": "x"})
	if r.Cycles != 123 || r.Schema != Schema {
		t.Fatalf("header wrong: %+v", r)
	}
	if len(r.Latency) != 0 || len(r.Series) != 0 || r.Counters != nil {
		t.Fatalf("empty collector produced sections: %+v", r)
	}
	c.ReqForward.Record(10)
	c.Observe("s", 0, 1)
	c.Count("k", 1)
	r = c.Report(123, nil)
	if _, ok := r.Latency["request_forward"]; !ok {
		t.Fatal("request_forward missing")
	}
	if len(r.Series) != 1 || r.Series[0].Name != "s" || r.Counters["k"] != 1 {
		t.Fatalf("report wrong: %+v", r)
	}
}

// TestSeriesCapMergesWindows: a series fed three times maxWindows windows
// keeps at most maxWindows points at a doubled (here quadrupled) window,
// with every observation's count and sum and the whole envelope conserved;
// a series under the cap exports its windows unchanged.
func TestSeriesCapMergesWindows(t *testing.T) {
	c := New(Options{})
	c.TS = NewTimeSeries(10)
	long, short := c.TS.Series("long"), c.TS.Series("short")
	var sum float64
	for i := int64(0); i < 3*maxWindows; i++ {
		v := float64(i%7) - 3
		long.Observe(i*10+3, v)
		sum += v
	}
	for i := int64(0); i < 100; i++ {
		short.Observe(i*10, float64(i))
	}
	pts := long.Points()
	if len(pts) > maxWindows || long.Window() != 40 {
		t.Fatalf("%d points at window %d, want at most %d at window 40", len(pts), long.Window(), maxWindows)
	}
	var n uint64
	var got float64
	lo, hi := pts[0].Min, pts[0].Max
	for i, p := range pts {
		if p.Start != int64(i)*40 {
			t.Fatalf("point %d starts at %d, want %d", i, p.Start, i*40)
		}
		n += p.Count
		got += p.Mean * float64(p.Count)
		lo, hi = min(lo, p.Min), max(hi, p.Max)
	}
	if n != 3*maxWindows || math.Abs(got-sum) > 1e-6 || lo != -3 || hi != 3 {
		t.Fatalf("merged series holds count %d sum %g envelope [%g, %g], want %d, %g, [-3, 3]", n, got, lo, hi, 3*maxWindows, sum)
	}

	sp := short.Points()
	if len(sp) != 100 || short.Window() != 10 {
		t.Fatalf("series under the cap: %d points at window %d, want 100 at 10", len(sp), short.Window())
	}
	for i, p := range sp {
		if p.Start != int64(i)*10 || p.Count != 1 || p.Mean != float64(i) {
			t.Fatalf("series under the cap, point %d = %+v", i, p)
		}
	}
	r := c.Report(0, nil)
	if r.Series[0].WindowCycles != 40 || r.Series[1].WindowCycles != 10 {
		t.Fatalf("exported windows %d and %d, want each series' own (40, 10)", r.Series[0].WindowCycles, r.Series[1].WindowCycles)
	}
}

// TestSeriesSummaryMatchesStatsHelpers: Summary equals, bit for bit, the
// stats helpers applied to the exported points' means, over random
// observation times (empty windows and coarsening included) and finite
// values of either sign.
func TestSeriesSummaryMatchesStatsHelpers(t *testing.T) {
	f := func(times []uint16, values []int32) bool {
		s := NewTimeSeries(16).Series("x")
		for i, v := range values {
			if len(times) > 0 {
				s.Observe(int64(times[i%len(times)])*4, float64(v)/64)
			}
		}
		var means []float64
		for _, p := range s.Points() {
			means = append(means, p.Mean)
		}
		want := SeriesSummary{}
		if len(means) > 0 {
			want = SeriesSummary{Windows: uint64(len(means)), Mean: stats.Mean(means), Stddev: stats.Stddev(means),
				Min: slices.Min(means), Max: slices.Max(means), P50: stats.Percentile(means, 0.5)}
		}
		if got := s.Summary(); got != want {
			t.Logf("%d windows: Summary %+v, stats helpers %+v", len(means), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
