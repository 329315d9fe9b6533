package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of
// ascending samples: the smallest sample with at least q of the samples at
// or below it. Raw samples, not metrics.Histogram, whose log buckets are
// ~28 % wide and cannot resolve a 10 % bound.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summary digests the repetitions of one metric. The run's value is the
// median; the rest is there for whoever wants the best, or the raw values.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the inter-quartile distance as a share of the median — the
// figure the acceptance driver computes over its own runs.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(values []float64) summary {
	s := summary{Values: values}
	if len(values) == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = quantileSorted(v, 2, 4)
	s.Q1 = quantileSorted(v, 1, 4)
	s.Q3 = quantileSorted(v, 3, 4)
	return s
}

func median(values []float64) float64 { return summarize(values).Median }

// quantileSorted is the i-th of n cut points of ascending v by the
// "exclusive" method of Python's statistics.quantiles, so a spread printed
// here is the spread the driver computes from the same numbers.
func quantileSorted(v []float64, i, n int) float64 {
	m := len(v)
	if m == 1 {
		return v[0]
	}
	j := i * (m + 1) / n
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := i*(m+1) - j*n
	return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / float64(n)
}
