package stats

import (
	"math"
	"sort"
)

// Percentile returns the q-th quantile of xs, q in [0,1], using linear
// interpolation between closest ranks (the same convention as numpy's
// default). xs need not be sorted; it is not modified. Sorted input is
// read in place; anything else is first copied and sorted. Empty input
// yields NaN, matching Mean.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := xs
	if !sort.Float64sAreSorted(xs) {
		sorted = make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Stddev returns the population standard deviation of xs (divisor n, not
// n-1: the evaluation summarises complete series, not samples of larger
// ones). Empty input yields NaN.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}
