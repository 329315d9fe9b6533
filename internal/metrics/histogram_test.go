package metrics

import (
	"math"
	"slices"
	"testing"

	"shadowblock/internal/stats"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must fall inside its own bucket's bounds, and bucket
	// indices must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || (v > hi && hi > 0) {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
		if i < prev {
			t.Fatalf("bucket index not monotone at value %d", v)
		}
		prev = i
	}
}

func TestHistogramExactBelowSubBuckets(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 8; v++ {
		h.Record(v)
	}
	for q, want := range map[float64]int64{0.125: 0, 0.5: 3, 1: 7} {
		if got := h.Percentile(q); got != want {
			t.Fatalf("Percentile(%g) = %d, want %d", q, got, want)
		}
	}
}

// TestPercentileAgainstStatsOracle cross-checks the bucketed quantile
// estimate against the exact stats.Percentile helper: the bucket's
// guaranteed relative error is 2^-subBits.
func TestPercentileAgainstStatsOracle(t *testing.T) {
	h := NewHistogram()
	var raw []float64
	v := int64(3)
	for i := 0; i < 5000; i++ {
		v = (v*2862933555777941757 + 3037000493) % 2_000_000
		if v < 0 {
			v = -v
		}
		h.Record(v)
		raw = append(raw, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := stats.Percentile(raw, q)
		got := float64(h.Percentile(q))
		if got < exact*(1-1e-9) {
			t.Fatalf("q=%g: bucketed %g below exact %g (must be an upper bound)", q, got, exact)
		}
		if got > exact*1.13+1 {
			t.Fatalf("q=%g: bucketed %g exceeds exact %g by more than 12.5%%", q, got, exact)
		}
	}
	if m := h.Mean(); math.Abs(m-stats.Mean(raw)) > 1e-6*m {
		t.Fatalf("Mean %g != exact %g", m, stats.Mean(raw))
	}
	if s := h.Stddev(); math.Abs(s-stats.Stddev(raw)) > 1e-6*s {
		t.Fatalf("Stddev %g != exact %g", s, stats.Stddev(raw))
	}
	if h.Min() != int64(slices.Min(raw)) || h.Max() != int64(slices.Max(raw)) {
		t.Fatalf("Min/Max %d/%d != exact %g/%g", h.Min(), h.Max(), slices.Min(raw), slices.Max(raw))
	}
}

func TestHistogramMergeAcrossShards(t *testing.T) {
	// Per-core shards merged must equal one histogram fed everything.
	whole := NewHistogram()
	shards := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i := int64(0); i < 4000; i++ {
		v := (i * i) % 100003
		whole.Record(v)
		shards[i%4].Record(v)
	}
	merged := NewHistogram()
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged count/min/max %d/%d/%d != whole %d/%d/%d",
			merged.Count(), merged.Min(), merged.Max(), whole.Count(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if merged.Percentile(q) != whole.Percentile(q) {
			t.Fatalf("q=%g: merged %d != whole %d", q, merged.Percentile(q), whole.Percentile(q))
		}
	}
	if merged.Mean() != whole.Mean() {
		t.Fatalf("merged mean %g != whole %g", merged.Mean(), whole.Mean())
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(5) // must not panic
	nilH.Merge(NewHistogram())
	if nilH.Count() != 0 || nilH.Percentile(0.5) != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram not inert")
	}
	empty := NewHistogram()
	s := empty.Summary()
	if s != (LatencySummary{}) {
		t.Fatalf("empty summary not zero: %+v", s)
	}
	if empty.Buckets() != nil {
		t.Fatal("empty histogram has buckets")
	}
	// Merging an empty histogram must not disturb min.
	h := NewHistogram()
	h.Record(42)
	h.Merge(empty)
	if h.Min() != 42 || h.Count() != 1 {
		t.Fatalf("merge of empty disturbed state: min %d count %d", h.Min(), h.Count())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-7)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: %+v", h.Summary())
	}
}

func TestBucketsCoverCounts(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 500; i++ {
		h.Record(i * 37)
	}
	var sum uint64
	prev := int64(-1)
	for _, b := range h.Buckets() {
		if b.LE <= prev {
			t.Fatalf("buckets not ascending at le=%d", b.LE)
		}
		prev = b.LE
		sum += b.Count
	}
	if sum != h.Count() {
		t.Fatalf("bucket counts %d != total %d", sum, h.Count())
	}
}
