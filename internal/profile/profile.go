// Package profile is the aggregation layer over internal/trace: it
// attributes simulated cycles and energy to hardware components (cores,
// access units, CGRA fabrics, NoC links, DRAM channels) and to software
// regions (kernel, offloaded loop region), and renders the result as a
// deterministic gem5-style stats dump, a FlameGraph-compatible folded-stacks
// export, and an offload latency breakdown table (dispatch / queue /
// execute / writeback — the paper's overhead analysis).
//
// It is also the simulator's one statistics registry: besides the
// attribution records it keeps log2 histograms (buffer occupancies and
// latencies) and additive named counters, all rendered into the same dump.
//
// Like the tracer, the disabled state is structural: a nil *Profiler hands
// out nil *Component / *Region / *Hist handles whose recording methods
// no-op, so model code instruments unconditionally and pays one predictable
// branch when profiling is off. Profiling is observational only — the
// simulator's cycle counts and results are bit-identical with it on or off
// (differential tests enforce this).
//
// Per-cell profilers from a parallel experiment matrix are folded together
// with Merge; every attribution and counter is a commutative sum and every
// histogram merges exactly, so the merged profile is identical at any
// worker count.
package profile

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"

	"distda/internal/stats"
	"distda/internal/trace"
)

// Profiler is one run's (or one merged matrix's) attribution store.
// Registration (Component/Region/Hist) and Add are mutex-guarded and may
// happen from any goroutine; recording through a returned handle is
// lock-free and owned by the run's single goroutine.
type Profiler struct {
	mu       sync.Mutex
	comps    map[compKey]*Component
	regions  map[regKey]*Region
	hists    map[string]*Hist
	spans    map[spanKey]*SpanAgg
	counters map[string]int64

	totalBase int64 // simulated base cycles across absorbed runs
	runs      int64
}

type compKey struct{ kind, name string }
type regKey struct{ kernel, name string }
type spanKey struct{ track, name string }

// New returns an enabled profiler.
func New() *Profiler {
	return &Profiler{
		comps:    map[compKey]*Component{},
		regions:  map[regKey]*Region{},
		hists:    map[string]*Hist{},
		spans:    map[spanKey]*SpanAgg{},
		counters: map[string]int64{},
	}
}

// Enabled reports whether attribution is being kept.
func (p *Profiler) Enabled() bool { return p != nil }

// AddRun accounts one completed simulation of totalBase simulated base
// cycles — the utilization denominator. No-op on nil.
func (p *Profiler) AddRun(totalBase int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.totalBase += totalBase
	p.runs++
	p.mu.Unlock()
}

// Component returns (creating on first use) the attribution record for one
// hardware component, identified by a kind ("core", "noc_link", ...) and an
// instance name. Nil on a nil profiler.
func (p *Profiler) Component(kind, name string) *Component {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return getOrCreate(p.comps, compKey{kind, name}, func() *Component { return &Component{Kind: kind, Name: name} })
}

// Region returns (creating on first use) the attribution record for one
// software region of a kernel. Nil on a nil profiler.
func (p *Profiler) Region(kernel, name string) *Region {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return getOrCreate(p.regions, regKey{kernel, name}, func() *Region {
		return &Region{Kernel: kernel, Name: name, comps: map[string]int64{}}
	})
}

// Hist returns (creating on first use) the histogram keyed by its full
// stat prefix: "queue.<kind>.<name>.occ" for a buffer occupancy,
// "latency.<component>.<name>" for a latency. desc names the sampled
// quantity in the dump's comments; the first registration's desc wins.
// Nil on a nil profiler.
func (p *Profiler) Hist(prefix, desc string) *Hist {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return getOrCreate(p.hists, prefix, func() *Hist { return &Hist{Prefix: prefix, Desc: desc} })
}

// span returns (creating on first use) the aggregate of the trace spans
// named name on track. The caller holds p.mu.
func (p *Profiler) span(track, name string) *SpanAgg {
	return getOrCreate(p.spans, spanKey{track, name}, func() *SpanAgg { return &SpanAgg{Track: track, Name: name} })
}

// getOrCreate returns m[k], first storing mk() there if k is absent.
func getOrCreate[K comparable, V any](m map[K]V, k K, mk func() V) V {
	v, ok := m[k]
	if !ok {
		v = mk()
		m[k] = v
	}
	return v
}

// Add adds n to the named counter, creating it on first use (so a zero
// count still appears in the dump). Counters merge by addition. No-op on a
// nil profiler.
func (p *Profiler) Add(name string, n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.counters[name] += n
	p.mu.Unlock()
}

// Component attributes simulated base cycles, events and energy to one
// hardware component. All methods are nil-receiver safe.
type Component struct {
	Kind, Name string
	Busy       int64   // base cycles doing useful work
	Stall      int64   // base cycles stalled waiting (0 where not modeled)
	Events     int64   // component-specific unit: ops, accesses, flit-hops
	EnergyPJ   float64 // dynamic energy attributed to this component
}

// AddBusy attributes n busy base cycles (no-op on nil).
func (c *Component) AddBusy(n int64) {
	if c == nil {
		return
	}
	c.Busy += n
}

// AddStall attributes n stalled base cycles (no-op on nil).
func (c *Component) AddStall(n int64) {
	if c == nil {
		return
	}
	c.Stall += n
}

// AddEvents attributes n component events (no-op on nil).
func (c *Component) AddEvents(n int64) {
	if c == nil {
		return
	}
	c.Events += n
}

// AddEnergy attributes pj picojoules (no-op on nil).
func (c *Component) AddEnergy(pj float64) {
	if c == nil {
		return
	}
	c.EnergyPJ += pj
}

// Region attributes offload activity to one software region. All methods
// are nil-receiver safe.
type Region struct {
	Kernel, Name string
	Launches     int64
	// The offload latency phases, in base cycles, mirroring the paper's
	// overhead analysis: host-side configuration (dispatch), waiting for
	// accelerator resources behind a prior launch (queue), the engine-run
	// execution itself (execute), and the host-side sync + scalar read-back
	// (writeback).
	Dispatch, Queue, Execute, Writeback int64

	comps map[string]int64 // component label -> base cycles (folded stacks)
}

// AddLaunch accounts one launch's phase cycles (no-op on nil).
func (r *Region) AddLaunch(dispatch, queue, execute, writeback int64) {
	if r == nil {
		return
	}
	r.Launches++
	r.Dispatch += dispatch
	r.Queue += queue
	r.Execute += execute
	r.Writeback += writeback
}

// AddComponent attributes base cycles of this region's execution to a named
// component — the kernel→region→component folded-stack edge (no-op on nil).
func (r *Region) AddComponent(label string, base int64) {
	if r == nil || base == 0 {
		return
	}
	r.comps[label] += base
}

// Total returns the region's end-to-end attributed base cycles.
func (r *Region) Total() int64 {
	if r == nil {
		return 0
	}
	return r.Dispatch + r.Queue + r.Execute + r.Writeback
}

// Hist is a log2 histogram handle. Observe sits on simulation hot paths
// (buffer pushes, per-line fetches), so the nil fast path is a single
// branch.
type Hist struct {
	Prefix, Desc string
	h            stats.Histogram
}

// Observe records one sample (no-op on nil).
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Observe(v)
}

// Snapshot returns a copy of the underlying histogram (zero value on nil).
func (h *Hist) Snapshot() stats.Histogram {
	if h == nil {
		return stats.Histogram{}
	}
	return h.h
}

// SpanAgg aggregates the trace spans sharing one (track, name): the bridge
// from raw trace events to attribution (see AbsorbTrace).
type SpanAgg struct {
	Track, Name string
	Count       int64
	Cycles      int64 // summed span durations, base cycles
	Instants    int64
}

// AbsorbTrace folds a tracer's buffered events into the profiler's span
// aggregates: spans sum their durations per (track, name), instants count.
// Iteration order is the tracer's deterministic visit order, and every
// accumulation is commutative, so absorbing tracers in any order yields the
// same profile. No-op on a nil profiler or nil tracer.
func (p *Profiler) AbsorbTrace(tr *trace.Tracer) {
	if p == nil || tr == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	tr.VisitEvents(func(ev trace.Event) {
		a := p.span(ev.Track, ev.Name)
		if ev.Instant {
			a.Instants++
			return
		}
		a.Count++
		a.Cycles += ev.Dur
	})
}

// Merge folds other into p: components, regions, spans, counters and the
// cycle denominator add; histograms merge exactly. Merging profilers in any
// order yields identical results (every operation is commutative), which is
// what lets the experiment matrix fold per-cell profilers at any worker
// count. A nil p or other is a no-op.
func (p *Profiler) Merge(other *Profiler) {
	if p == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	for _, oc := range other.comps {
		c := p.Component(oc.Kind, oc.Name)
		c.Busy += oc.Busy
		c.Stall += oc.Stall
		c.Events += oc.Events
		c.EnergyPJ += oc.EnergyPJ
	}
	for _, or := range other.regions {
		r := p.Region(or.Kernel, or.Name)
		r.Launches += or.Launches
		r.Dispatch += or.Dispatch
		r.Queue += or.Queue
		r.Execute += or.Execute
		r.Writeback += or.Writeback
		for label, n := range or.comps {
			r.comps[label] += n
		}
	}
	for _, oh := range other.hists {
		p.Hist(oh.Prefix, oh.Desc).h.Merge(&oh.h)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalBase += other.totalBase
	p.runs += other.runs
	for name, n := range other.counters {
		p.counters[name] += n
	}
	for _, os := range other.spans {
		a := p.span(os.Track, os.Name)
		a.Count += os.Count
		a.Cycles += os.Cycles
		a.Instants += os.Instants
	}
}

// Components returns every component sorted by (kind, name).
func (p *Profiler) Components() []*Component {
	return sortedValues(p, func(p *Profiler) map[compKey]*Component { return p.comps }, func(a, b *Component) int {
		return cmp.Or(strings.Compare(a.Kind, b.Kind), strings.Compare(a.Name, b.Name))
	})
}

// Regions returns every region sorted by (kernel, name).
func (p *Profiler) Regions() []*Region {
	return sortedValues(p, func(p *Profiler) map[regKey]*Region { return p.regions }, func(a, b *Region) int {
		return cmp.Or(strings.Compare(a.Kernel, b.Kernel), strings.Compare(a.Name, b.Name))
	})
}

// Hists returns every histogram sorted by prefix.
func (p *Profiler) Hists() []*Hist {
	return sortedValues(p, func(p *Profiler) map[string]*Hist { return p.hists }, func(a, b *Hist) int {
		return strings.Compare(a.Prefix, b.Prefix)
	})
}

// Spans returns every span aggregate sorted by (track, name).
func (p *Profiler) Spans() []*SpanAgg {
	return sortedValues(p, func(p *Profiler) map[spanKey]*SpanAgg { return p.spans }, func(a, b *SpanAgg) int {
		return cmp.Or(strings.Compare(a.Track, b.Track), strings.Compare(a.Name, b.Name))
	})
}

// sortedValues returns the values of one of p's records, read under p.mu
// and sorted by order (nil on a nil profiler).
func sortedValues[K comparable, V any](p *Profiler, records func(*Profiler) map[K]V, order func(a, b V) int) []V {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := records(p)
	out := make([]V, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	slices.SortFunc(out, order)
	return out
}

// Counters returns a copy of every named counter (nil on a nil profiler).
func (p *Profiler) Counters() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.counters)
}
