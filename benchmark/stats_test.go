package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Two samples 28 % apart, the width of one metrics.Histogram bucket,
	// stay two values.
	if lo, hi := percentile([]int64{229, 295}, 0.5), percentile([]int64{229, 295}, 1); lo != 229 || hi != 295 {
		t.Errorf("percentiles of {229,295} = %d, %d", lo, hi)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// The reference values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v): the driver computes spreads with those.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 3, 2, 4}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		s := summarize(c.v)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", c.v, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
	s := summarize([]float64{90, 100, 110, 100, 100})
	if want := (105.0 - 95.0) / 100; math.Abs(s.spread()-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", s.spread(), want)
	}
	if s.Min != 90 || s.Max != 110 || s.Median != 100 {
		t.Errorf("min/max/median = %v/%v/%v", s.Min, s.Max, s.Median)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	higher := metric{Name: "some_rate", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m * 1.01, m, m}) }
	wide := func(m float64) summary {
		return summarize([]float64{m * 0.7, m * 0.85, m, m * 1.15, m * 1.3})
	}
	for _, c := range []struct {
		name string
		m    metric
		a, b summary
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"within bound", lower, tight(100), tight(108), verdictOK},
		{"lower-better got higher", lower, tight(100), tight(115), verdictRegressed},
		{"lower-better got lower", lower, tight(100), tight(50), verdictOK},
		{"higher-better got lower", higher, tight(100), tight(85), verdictRegressed},
		{"higher-better got higher", higher, tight(100), tight(130), verdictOK},
		{"noisy pair cannot resolve", lower, wide(100), wide(104), verdictUnresolved},
		{"noisy but every run better", lower, wide(100), wide(40), verdictOK},
		{"noisy but every run worse", lower, wide(100), wide(250), verdictRegressed},
		{"noisy, higher-better, every run worse", higher, wide(250), wide(100), verdictRegressed},
		{"nothing measured on one side", lower, tight(100), summary{}, verdictUnresolved},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
