// Package metrics is the simulator's observability layer: log-bucketed
// latency histograms, epoch-bucketed time-series, and a ring-buffered
// recorder of request-lifecycle events exportable as Chrome trace-event
// JSON (viewable in Perfetto / chrome://tracing).
//
// Everything is wired through a *Collector that the simulation layers
// probe. A nil *Collector is a valid, zero-cost no-op: every probe method
// has a nil-receiver guard, so instrumented code paths stay byte-identical
// in behaviour (and in simulated cycle counts) whether or not metrics are
// being gathered. The collector only ever *reads* simulation state — it
// never consumes randomness or alters control flow — which keeps runs
// deterministic under observation.
package metrics

import (
	"math"
	"math/bits"
)

// Histogram bucketing: exact buckets for values below 2^subBits, then
// 2^subBits sub-buckets per power of two (HDR-histogram style), bounding
// the relative quantile error at 2^-subBits = 12.5%.
const (
	subBits    = 3
	numBuckets = 512 // covers the full non-negative int64 range
)

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (cycle latencies). Histograms from independent shards (e.g. per-core)
// merge exactly: bucket counts and moments are all sums.
//
// The zero value is not usable; use NewHistogram. All methods are
// nil-receiver-safe so disabled instrumentation costs one branch.
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    int64
	sumSq  float64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: -1} }

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits
	return exp<<subBits + int(uint64(v)>>uint(exp))
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < 1<<subBits {
		return int64(i), int64(i)
	}
	exp := uint(i>>subBits - 1)
	m := int64(1<<subBits | i&(1<<subBits-1))
	return m << exp, (m+1)<<exp - 1
}

// Record adds one sample. Negative samples are clamped to zero (they can
// only arise from probe misuse and must not corrupt the buckets).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	h.sumSq += float64(v) * float64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.min < 0 {
		return 0
	}
	return h.min
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Stddev returns the population standard deviation (0 when empty).
func (h *Histogram) Stddev() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.count) - m*m
	if v < 0 { // floating-point cancellation
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns an upper bound for the q-th quantile (q in [0,1]):
// the upper edge of the bucket holding the sample of that rank, clamped to
// the observed max. Exact for values below 2^subBits; within 12.5% above.
// An empty histogram returns 0.
func (h *Histogram) Percentile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			_, hi := bucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge folds o into h (e.g. per-core histograms into a machine-wide one).
// A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.sumSq += o.sumSq
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// LatencySummary is the JSON-friendly digest of a histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    int64   `json:"p50"`
	P90    int64   `json:"p90"`
	P99    int64   `json:"p99"`
}

// Summary digests the histogram. An empty (or nil) histogram summarises to
// all zeroes — never NaN, so the digest is always JSON-encodable.
func (h *Histogram) Summary() LatencySummary {
	if h == nil || h.count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  h.count,
		Min:    h.Min(),
		Max:    h.max,
		Mean:   h.Mean(),
		Stddev: h.Stddev(),
		P50:    h.Percentile(0.50),
		P90:    h.Percentile(0.90),
		P99:    h.Percentile(0.99),
	}
}

// Bucket is one non-empty histogram bucket in the JSON export.
type Bucket struct {
	LE    int64  `json:"le"` // inclusive upper value bound
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		out = append(out, Bucket{LE: hi, Count: c})
	}
	return out
}
