// Package profile is the aggregation layer over internal/trace: it
// attributes simulated cycles and energy to hardware components (cores,
// access units, CGRA fabrics, NoC links, DRAM channels) and to software
// regions (kernel, offloaded loop region), and renders the result as a
// deterministic gem5-style stats dump, a FlameGraph-compatible folded-stacks
// export, and an offload latency breakdown table (dispatch / queue /
// execute / writeback — the paper's overhead analysis).
//
// Like the tracer, the disabled state is structural: a nil *Profiler hands
// out nil *Component / *Region / *Queue handles whose recording methods
// no-op, so model code instruments unconditionally and pays one predictable
// branch when profiling is off. Profiling is observational only — the
// simulator's cycle counts and results are bit-identical with it on or off
// (differential tests enforce this).
//
// Per-cell profilers from a parallel experiment matrix are folded together
// with Merge; every attribution is a commutative sum or an exact histogram
// merge, so the merged profile is identical at any worker count.
package profile

import (
	"sort"
	"sync"

	"distda/internal/stats"
	"distda/internal/trace"
)

// Profiler is one run's (or one merged matrix's) attribution store.
// Registration (Component/Region/Queue) is mutex-guarded and may happen
// from any goroutine; recording through a returned handle is lock-free and
// owned by the run's single goroutine, exactly like trace.Metrics.
type Profiler struct {
	mu      sync.Mutex
	comps   map[compKey]*Component
	regions map[regKey]*Region
	queues  map[compKey]*Queue
	spans   map[spanKey]*SpanAgg

	totalBase int64 // simulated base cycles across absorbed runs
	runs      int64
}

type compKey struct{ kind, name string }
type regKey struct{ kernel, name string }
type spanKey struct{ track, name string }

// New returns an enabled profiler.
func New() *Profiler {
	return &Profiler{
		comps:   map[compKey]*Component{},
		regions: map[regKey]*Region{},
		queues:  map[compKey]*Queue{},
		spans:   map[spanKey]*SpanAgg{},
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

// TotalBase returns the accumulated simulated base cycles (0 on nil).
func (p *Profiler) TotalBase() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totalBase
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
	k := compKey{kind, name}
	c, ok := p.comps[k]
	if !ok {
		c = &Component{Kind: kind, Name: name}
		p.comps[k] = c
	}
	return c
}

// Region returns (creating on first use) the attribution record for one
// software region of a kernel. Nil on a nil profiler.
func (p *Profiler) Region(kernel, name string) *Region {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := regKey{kernel, name}
	r, ok := p.regions[k]
	if !ok {
		r = &Region{Kernel: kernel, Name: name, comps: map[string]int64{}}
		p.regions[k] = r
	}
	return r
}

// Queue returns (creating on first use) the occupancy histogram for one
// queue-like structure (decoupling buffers, pending-line windows). Nil on a
// nil profiler.
func (p *Profiler) Queue(kind, name string) *Queue {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := compKey{kind, name}
	q, ok := p.queues[k]
	if !ok {
		q = &Queue{Kind: kind, Name: name}
		p.queues[k] = q
	}
	return q
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

// Queue is an occupancy histogram handle. Observe sits on simulation hot
// paths (buffer pushes), so the nil fast path is a single branch.
type Queue struct {
	Kind, Name string
	h          stats.Histogram
}

// Observe records one occupancy sample (no-op on nil).
func (q *Queue) Observe(depth int64) {
	if q == nil {
		return
	}
	q.h.Observe(float64(depth))
}

// Hist returns a copy of the underlying histogram (zero value on nil).
func (q *Queue) Hist() stats.Histogram {
	if q == nil {
		return stats.Histogram{}
	}
	return q.h
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
		k := spanKey{ev.Track, ev.Name}
		a, ok := p.spans[k]
		if !ok {
			a = &SpanAgg{Track: ev.Track, Name: ev.Name}
			p.spans[k] = a
		}
		if ev.Instant {
			a.Instants++
			return
		}
		a.Count++
		a.Cycles += ev.Dur
	})
}

// Merge folds other into p: components, regions, spans and the cycle
// denominator add; queue histograms merge exactly. Merging profilers in any
// order yields identical results (every operation is commutative), which is
// what lets the experiment matrix fold per-cell profilers at any worker
// count. A nil p or other is a no-op.
func (p *Profiler) Merge(other *Profiler) {
	if p == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalBase += other.totalBase
	p.runs += other.runs
	for k, oc := range other.comps {
		c, ok := p.comps[k]
		if !ok {
			c = &Component{Kind: oc.Kind, Name: oc.Name}
			p.comps[k] = c
		}
		c.Busy += oc.Busy
		c.Stall += oc.Stall
		c.Events += oc.Events
		c.EnergyPJ += oc.EnergyPJ
	}
	for k, or := range other.regions {
		r, ok := p.regions[k]
		if !ok {
			r = &Region{Kernel: or.Kernel, Name: or.Name, comps: map[string]int64{}}
			p.regions[k] = r
		}
		r.Launches += or.Launches
		r.Dispatch += or.Dispatch
		r.Queue += or.Queue
		r.Execute += or.Execute
		r.Writeback += or.Writeback
		for label, n := range or.comps {
			r.comps[label] += n
		}
	}
	for k, oq := range other.queues {
		q, ok := p.queues[k]
		if !ok {
			q = &Queue{Kind: oq.Kind, Name: oq.Name}
			p.queues[k] = q
		}
		q.h.Merge(&oq.h)
	}
	for k, os := range other.spans {
		a, ok := p.spans[k]
		if !ok {
			a = &SpanAgg{Track: os.Track, Name: os.Name}
			p.spans[k] = a
		}
		a.Count += os.Count
		a.Cycles += os.Cycles
		a.Instants += os.Instants
	}
}

// Components returns every component sorted by (kind, name).
func (p *Profiler) Components() []*Component {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Component, 0, len(p.comps))
	for _, c := range p.comps {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Regions returns every region sorted by (kernel, name).
func (p *Profiler) Regions() []*Region {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Region, 0, len(p.regions))
	for _, r := range p.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Queues returns every queue sorted by (kind, name).
func (p *Profiler) Queues() []*Queue {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Queue, 0, len(p.queues))
	for _, q := range p.queues {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Spans returns every span aggregate sorted by (track, name).
func (p *Profiler) Spans() []*SpanAgg {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*SpanAgg, 0, len(p.spans))
	for _, a := range p.spans {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// regionComponents returns a region's folded-stack edges sorted by label.
func (r *Region) regionComponents() []struct {
	Label string
	Base  int64
} {
	out := make([]struct {
		Label string
		Base  int64
	}, 0, len(r.comps))
	for label, n := range r.comps {
		out = append(out, struct {
			Label string
			Base  int64
		}{label, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
