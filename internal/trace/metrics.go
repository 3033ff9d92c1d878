package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"distda/internal/report"
	"distda/internal/stats"
)

// Metrics is the per-run metric registry: named counters, gauges and
// cycle-bucketed histograms that components register into at assembly time.
// Names are conventionally "component/metric" — the renderer groups on the
// prefix. A nil *Metrics is the disabled state: it hands out nil handles
// whose recording methods no-op, so instrumentation is unconditional.
//
// Registration (Counter/Gauge/Histogram) is mutex-guarded and may happen
// from any goroutine; recording through a handle is lock-free and owned by
// the run's single goroutine. Registries from parallel runs are folded
// together deterministically with Merge.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewMetrics returns an enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Hist{},
	}
}

// Counter returns the named counter, creating it on first use. Nil on a nil
// registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a nil
// registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named log2 histogram, creating it on first use. Nil
// on a nil registry.
func (m *Metrics) Histogram(name string) *Hist {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Hist{}
		m.hists[name] = h
	}
	return h
}

// Counter is a monotonically accumulating integer metric. Nil-receiver safe.
type Counter struct{ n int64 }

// Add accumulates n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n += n
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a last-value metric. Nil-receiver safe.
type Gauge struct {
	v   float64
	set bool
}

// Set records the value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.set = true
}

// Value returns the last set value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Hist is a cycle-bucketed log2 histogram metric with p50/p95/p99 bounds.
// Nil-receiver safe.
type Hist struct{ h stats.Histogram }

// Observe records one sample (no-op on nil).
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Observe(v)
}

// ObserveN records the sample n times (no-op on nil).
func (h *Hist) ObserveN(v float64, n int64) {
	if h == nil {
		return
	}
	h.h.ObserveN(v, n)
}

// Snapshot returns a copy of the underlying histogram (zero value on nil).
func (h *Hist) Snapshot() stats.Histogram {
	if h == nil {
		return stats.Histogram{}
	}
	return h.h
}

// Names returns every registered metric name, sorted. Empty on a nil
// registry.
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.counters)+len(m.gauges)+len(m.hists))
	for n := range m.counters {
		names = append(names, n)
	}
	for n := range m.gauges {
		names = append(names, n)
	}
	for n := range m.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds other's metrics into m: counters add, histograms merge
// bucket-wise, gauges keep other's value when it was set (last writer wins
// in merge order, which the caller keeps deterministic). A nil m or other is
// a no-op.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	for name, c := range other.counters {
		m.Counter(name).Add(c.n)
	}
	for name, g := range other.gauges {
		if g.set {
			m.Gauge(name).Set(g.v)
		}
	}
	for name, h := range other.hists {
		mh := m.Histogram(name)
		mh.h.Merge(&h.h)
	}
}

// splitName separates "component/metric" into its columns.
func splitName(name string) (comp, metric string) {
	if i := strings.Index(name, "/"); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "-", name
}

// Table renders the registry as a per-component metrics table (component,
// metric, value), sorted by component then metric, via internal/report.
func (m *Metrics) Table() *report.Table {
	t := &report.Table{
		Title:   "Metrics by component",
		Columns: []string{"component", "metric", "value"},
	}
	if m == nil {
		t.AddNote("metrics disabled")
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// kind breaks (comp, metric) ties: a counter and a gauge/histogram
	// registered under the same full name would otherwise order by map
	// iteration, making the rendered table differ between runs (and between
	// Merge orders of parallel cells). Counters sort before gauges before
	// histograms.
	type row struct {
		comp, metric string
		kind         int
		value        string
	}
	var rows []row
	for name, c := range m.counters {
		comp, metric := splitName(name)
		rows = append(rows, row{comp, metric, 0, fmt.Sprintf("%d", c.n)})
	}
	for name, g := range m.gauges {
		comp, metric := splitName(name)
		rows = append(rows, row{comp, metric, 1, fmt.Sprintf("%g", g.v)})
	}
	for name, h := range m.hists {
		comp, metric := splitName(name)
		rows = append(rows, row{comp, metric, 2, h.h.String()})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].comp != rows[j].comp {
			return rows[i].comp < rows[j].comp
		}
		if rows[i].metric != rows[j].metric {
			return rows[i].metric < rows[j].metric
		}
		return rows[i].kind < rows[j].kind
	})
	for _, r := range rows {
		t.AddRow(r.comp, r.metric, r.value)
	}
	return t
}
