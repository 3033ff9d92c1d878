package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "Jobs.", "outcome")
	c.With("done").Inc()
	c.With("done").Add(2)
	c.With("failed").Inc()
	if got := c.With("done").Value(); got != 3 {
		t.Fatalf("done = %d, want 3", got)
	}
	if got := c.With("failed").Value(); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("queue_depth", "Depth.")
	g.With().Set(7)
	if got := g.With().Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	g.With().Set(3)
	if got := g.With().Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.With().Observe(v)
	}
	hh := h.With()
	if got := hh.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := hh.Sum(), 55.65; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Bucket membership: <=0.1 gets 0.05 and 0.1 (bound inclusive),
	// <=1 gets 0.5, <=10 gets 5, +Inf gets 50.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := hh.buckets[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "Latency.", nil)
	h.With().ObserveDuration(3 * time.Millisecond)
	if got := h.With().Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "A.", "l")
	g := r.Gauge("b", "B.")
	h := r.Histogram("c", "C.", nil)
	c.With("x").Inc()
	c.With("x").Add(5)
	g.With().Set(1)
	h.With().Observe(1)
	h.With().ObserveDuration(time.Second)
	if c.With("x").Value() != 0 || g.With().Value() != 0 || h.With().Count() != 0 || h.With().Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition not empty: %q", buf.String())
	}
}

func TestReRegisterSameSchema(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "X.", "l")
	b := r.Counter("x_total", "X.", "l")
	a.With("v").Inc()
	b.With("v").Inc()
	if got := a.With("v").Value(); got != 2 {
		t.Fatalf("re-registered family not shared: %d", got)
	}
}

func TestReRegisterMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "X.", "l")
	for _, fn := range []func(){
		func() { r.Gauge("x_total", "X.", "l") },
		func() { r.Counter("x_total", "X.", "other") },
		func() { r.Counter("x_total", "X.", "l", "extra") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("schema mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBadNamesPanic(t *testing.T) {
	r := New()
	for _, fn := range []func(){
		func() { r.Counter("9bad", "X.") },
		func() { r.Counter("has space", "X.") },
		func() { r.Counter("", "X.") },
		func() { r.Counter("ok_total", "X.", "bad-label") },
		func() { r.Counter("ok2_total", "X.", "bad:label") },
		func() { r.Histogram("h", "X.", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid name/bounds did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "X.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	c.With("only-one")
}

// TestConcurrentDeterminism records a fixed multiset of observations from
// k goroutines for several k and asserts the exposition bytes are
// identical: counters are integers and histogram sums are fixed-point, so
// arrival order and worker count must not change the rendered output.
func TestConcurrentDeterminism(t *testing.T) {
	render := func(workers int) string {
		r := New()
		c := r.Counter("jobs_total", "Jobs.", "outcome", "tenant")
		h := r.Histogram("stage_seconds", "Stages.", nil, "stage")
		type ob struct {
			outcome, tenant, stage string
			v                      float64
		}
		var all []ob
		for i := 0; i < 240; i++ {
			all = append(all, ob{
				outcome: []string{"done", "failed", "cache_hit"}[i%3],
				tenant:  []string{"a", "b"}[i%2],
				stage:   []string{"queued", "executing", "rendering"}[i%3],
				v:       float64(i%17) * 0.013,
			})
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(all); i += workers {
					o := all[i]
					c.With(o.outcome, o.tenant).Inc()
					h.With(o.stage).Observe(o.v)
				}
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := render(1)
	for _, k := range []int{2, 4, 8} {
		if got := render(k); got != base {
			t.Fatalf("exposition differs at %d workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s", k, base, k, got)
		}
	}
}
