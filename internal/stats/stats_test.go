package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("Geomean(2,8) = %g", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %g", g)
	}
	// Non-positive entries are skipped, not poisonous.
	if g := Geomean([]float64{0, -3, 4}); g != 4 {
		t.Fatalf("Geomean with zeros = %g", g)
	}
	// NaN and Inf entries are skipped explicitly, never propagated.
	if g := Geomean([]float64{math.NaN(), math.Inf(1), 9}); math.Abs(g-9) > 1e-9 {
		t.Fatalf("Geomean with NaN/Inf = %g", g)
	}
	if g := Geomean([]float64{math.NaN(), math.Inf(-1)}); g != 0 {
		t.Fatalf("Geomean of only-skipped = %g", g)
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		var vals []float64
		for _, r := range raw {
			vals = append(vals, float64(r%1000)+1)
		}
		if len(vals) == 0 {
			return true
		}
		g := Geomean(vals)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, v := range []float64{0, 1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.N != 7 || h.Min != 0 || h.Max != 1000 {
		t.Fatalf("n=%d min=%g max=%g", h.N, h.Min, h.Max)
	}
	if h.Sum != 1110 {
		t.Fatalf("sum=%g", h.Sum)
	}
	// Bucket layout: [0,1) [1,2) [2,4) [4,8) ...
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[3] != 1 {
		t.Fatalf("buckets=%v", h.Buckets[:8])
	}
	h.Observe(-1)
	h.Observe(math.NaN())
	if h.Dropped != 2 || h.N != 7 {
		t.Fatalf("dropped=%d n=%d", h.Dropped, h.N)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact powers of two must land in the bucket they open.
	for i := 1; i < 50; i++ {
		v := math.Ldexp(1, i)
		if b := bucketOf(v); b != i+1 {
			t.Fatalf("bucketOf(2^%d) = %d, want %d", i, b, i+1)
		}
		if b := bucketOf(v - 0.5); b != i {
			t.Fatalf("bucketOf(2^%d - 0.5) = %d, want %d", i, b, i)
		}
	}
	// Huge values clamp into the last bucket instead of overflowing.
	if b := bucketOf(math.Ldexp(1, 400)); b != histBuckets-1 {
		t.Fatalf("huge sample bucket = %d", b)
	}
	if b := bucketOf(math.Inf(1)); b != histBuckets-1 {
		t.Fatalf("+Inf bucket = %d", b)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	// p50 of 0..99 falls in bucket [32,64): the bound must cover it.
	if p := h.Percentile(50); p < 49 || p > 64 {
		t.Fatalf("p50 = %g", p)
	}
	if p := h.Percentile(99); p < 98 || p > 99 {
		t.Fatalf("p99 = %g (max-clamped upper bound expected)", p)
	}
	if h.Percentile(0) != h.Min || h.Percentile(100) != h.Max {
		t.Fatal("percentile extremes must be exact min/max")
	}
	if h.Percentile(-5) != h.Min || h.Percentile(250) != h.Max {
		t.Fatal("out-of-range percentiles must clamp")
	}
}

func TestHistogramPercentileIsUpperBound(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		var h Histogram
		var vals []float64
		for _, r := range raw {
			v := float64(r % 100000)
			vals = append(vals, v)
			h.Observe(v)
		}
		if len(vals) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		bound := h.Percentile(p)
		// Count how many samples sit at or below the bound: must be at
		// least ceil(p/100*n) — the bound is a true upper bound.
		need := int64(math.Ceil(p / 100 * float64(len(vals))))
		var have int64
		for _, v := range vals {
			if v <= bound {
				have++
			}
		}
		return have >= need
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Observe(float64(i))
	}
	for i := 50; i < 100; i++ {
		b.Observe(float64(i))
	}
	b.Observe(-3) // dropped
	var whole Histogram
	for i := 0; i < 100; i++ {
		whole.Observe(float64(i))
	}
	a.Merge(&b)
	if a.N != whole.N || a.Sum != whole.Sum || a.Min != whole.Min || a.Max != whole.Max {
		t.Fatalf("merge summary mismatch: %+v vs %+v", a, whole)
	}
	if a.Dropped != 1 {
		t.Fatalf("merge dropped = %d", a.Dropped)
	}
	if a.Buckets != whole.Buckets {
		t.Fatalf("merge buckets mismatch:\n%v\n%v", a.Buckets, whole.Buckets)
	}
	// Merging nil and empty is a no-op.
	before := a
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a != before {
		t.Fatal("merge of nil/empty changed the histogram")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio")
	}
}
