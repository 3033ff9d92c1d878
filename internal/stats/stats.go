// Package stats provides the small numeric helpers the evaluation harness
// uses: geometric means and ratios, matching how the paper aggregates
// per-benchmark ratios, plus the fixed-bucket log2 histogram the profiler
// builds its occupancy and latency distributions on.
package stats

import "math"

// Geomean returns the geometric mean of vals, ignoring entries that carry no
// ratio information: non-positive values (a ratio of zero would collapse the
// mean), NaNs and infinities are all skipped explicitly. Returns 0 for an
// empty input or when every entry is skipped.
func Geomean(vals []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vals {
		if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns a/b, 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histBuckets is the fixed bucket count of Histogram: bucket 0 holds values
// in [0, 1), bucket i (i >= 1) holds [2^(i-1), 2^i). 63 pow-2 buckets cover
// every non-negative int64 a cycle-level simulator can produce.
const histBuckets = 64

// Histogram is a fixed-layout log2 histogram for non-negative samples
// (latencies in cycles, occupancies, hop counts). The fixed layout makes
// Merge exact and allocation-free, which the per-cell profilers rely on when
// the experiment matrix folds them together deterministically.
//
// The zero value is ready to use. Negative and NaN samples are dropped (and
// counted in Dropped) rather than silently folded into bucket 0.
type Histogram struct {
	Buckets [histBuckets]int64
	N       int64   // accepted samples
	Sum     float64 // sum of accepted samples
	Min     float64 // exact min of accepted samples (0 when N == 0)
	Max     float64 // exact max of accepted samples (0 when N == 0)
	Dropped int64   // negative / NaN samples rejected
}

// bucketOf returns the bucket index for a non-negative sample.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	// +Inf and anything past the last bucket's lower edge clamp into the
	// final bucket before Log2 can overflow the int conversion.
	if v >= math.Ldexp(1, histBuckets-2) {
		return histBuckets - 1
	}
	b := 1 + int(math.Log2(v))
	if b < 1 {
		b = 1
	}
	if b > histBuckets-1 {
		b = histBuckets - 1
	}
	// Guard the boundary: floating-point log2 of an exact power of two may
	// land a hair off the integer.
	for b < histBuckets-1 && v >= math.Ldexp(1, b) {
		b++
	}
	for b > 1 && v < math.Ldexp(1, b-1) {
		b--
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		h.Dropped++
		return
	}
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Mean returns the arithmetic mean of accepted samples, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Percentile returns an upper bound on the p-th percentile (p in [0,100]):
// the upper edge of the bucket where the cumulative count crosses p, with
// the exact Min/Max used for the extreme buckets. Returns 0 when empty; p
// outside [0,100] is clamped.
func (h *Histogram) Percentile(p float64) float64 {
	if h.N == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 100 {
		return h.Max
	}
	target := int64(math.Ceil(p / 100 * float64(h.N)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			hi := upperEdge(i)
			if hi > h.Max {
				hi = h.Max
			}
			if hi < h.Min {
				hi = h.Min
			}
			return hi
		}
	}
	return h.Max
}

// upperEdge returns the exclusive upper edge of bucket i.
func upperEdge(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Ldexp(1, i)
}

// Merge folds other into h. Both layouts are fixed, so the merge is exact.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || (other.N == 0 && other.Dropped == 0) {
		return
	}
	if other.N > 0 {
		if h.N == 0 || other.Min < h.Min {
			h.Min = other.Min
		}
		if h.N == 0 || other.Max > h.Max {
			h.Max = other.Max
		}
	}
	h.N += other.N
	h.Sum += other.Sum
	h.Dropped += other.Dropped
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}
