// Package obs is the wall-clock telemetry layer: a labeled
// counter/gauge/histogram registry with Prometheus text-format exposition,
// per-job lifecycle spans, and the per-cell progress record behind the
// /progress views.
//
// It is deliberately separate from internal/trace and internal/profile,
// which measure *simulated* time (base cycles on the run-global clock,
// bit-identical across runs). obs measures the *host*: how long jobs wait
// in the queue and how long stages and cells take on the wall clock. The
// two registries stay apart because their contracts differ: the profile
// needs exact log2 histograms and a deterministic Merge, obs needs labeled
// atomics and Prometheus, and one shared registry would branch on the
// clock. Lifecycle spans export through internal/trace's Chrome writer,
// the one trace_event encoder. Nothing in this
// package ever feeds back into a simulation — recording is observational
// only, and the differential tests in internal/serve and internal/sim
// prove served bytes and simulated results are bit-identical with obs
// enabled or disabled.
//
// Concurrency and determinism: instruments record through atomics, so any
// number of goroutines may write concurrently. Counters and histogram
// bucket counts are integers, and histogram sums accumulate in fixed-point
// nanounits (1e-9), so the merged value of a fixed multiset of observations
// is identical regardless of arrival order or worker count — the exposition
// bytes for a given set of observations are deterministic.
//
// The disabled state is a nil *Registry: it hands out nil vectors, which
// hand out nil instruments, whose recording methods no-op — so
// instrumentation is unconditional at call sites and costs a nil check when
// off (bounded at <=2% by TestDisabledObsOverhead, in the style of the
// engine's TestDisabledTracerOverhead).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type.
type Kind int

// Metric family kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds: half a millisecond through one minute, roughly 2-2.5x apart.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry is a set of named metric families. The zero value is not usable;
// construct with New. A nil *Registry is the disabled state: every method
// is safe to call and every instrument it hands out no-ops.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{fam: map[string]*family{}}
}

// family is one named metric with a fixed label schema. Series are created
// lazily per label-value tuple.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string  // label names, exposition order
	bounds []float64 // histogram bucket upper bounds (ascending)

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) instrument. Exactly one of the
// value holders is used, per the family kind.
type series struct {
	values []string
	c      Counter
	g      Gauge
	h      Histogram
}

// register returns the named family, creating it on first use. Registering
// the same name with a different kind or label schema is a programming
// error and panics — families are process-lifetime singletons.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if err := checkName(name); err != nil {
		panic("obs: " + err.Error())
	}
	for _, l := range labels {
		// Label names follow the metric-name grammar minus the colon.
		if err := checkName(l); err != nil || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fam[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: map[string]*series{},
	}
	r.fam[name] = f
	return f
}

// get returns the series for the given label values, creating it lazily.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{values: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			s.h.bounds = f.bounds
			s.h.buckets = make([]atomic.Int64, len(f.bounds)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter registers (or returns) a counter family. A counter only goes up;
// the rendered value is the accumulated integer count. Nil on a nil
// registry.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or returns) a gauge family: a last-written float value.
// Nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or returns) a histogram family with the given
// bucket upper bounds (nil selects DefBuckets; bounds must be ascending).
// Nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s bucket bounds not ascending", name))
		}
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, buckets)}
}

// CounterVec is a counter family handle; With resolves one labeled series.
// Nil-safe.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (in the family's
// label order), creating the series on first use. Nil on a nil vector.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &v.fam.get(values).c
}

// GaugeVec is a gauge family handle. Nil-safe.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values. Nil on a nil vector.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &v.fam.get(values).g
}

// HistogramVec is a histogram family handle. Nil-safe.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values. Nil on a nil
// vector.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &v.fam.get(values).h
}

// Counter is a monotonically increasing integer metric. All methods are
// atomic and nil-receiver safe.
type Counter struct{ n atomic.Int64 }

// Add accumulates n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Store overwrites the accumulated value. It exists for scrape-time
// mirroring of cumulative counters owned by another subsystem (the
// artifact caches); normal instrumentation should only Add.
func (c *Counter) Store(v int64) {
	if c == nil {
		return
	}
	c.n.Store(v)
}

// Value returns the accumulated count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value float metric. Atomic and nil-receiver safe.
type Gauge struct{ bits atomic.Uint64 }

// Set records the value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value (cumulative rendering adds them
// up); the sum accumulates in fixed-point nanounits so concurrent
// observation order never changes the rendered bytes. Atomic and
// nil-receiver safe.
type Histogram struct {
	bounds   []float64
	buckets  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumNanos atomic.Int64   // fixed-point sum, 1e-9 units
}

// Observe records one sample (no-op on nil). For latency histograms the
// unit is seconds.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(math.Round(v * 1e9)))
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNanos.Load()) / 1e9
}

// checkName validates a metric or label name against the Prometheus
// grammar: [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}
