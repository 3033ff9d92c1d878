// Package trace is the simulator's cycle-accurate span/instant tracer, with
// a zero-overhead disabled fast path. Per-component statistics (counters
// and histograms) live in internal/profile, which also folds trace spans
// into its stats dump.
//
// Timestamps are engine base cycles (1/6 ns per tick, engine.BaseGHz = 6).
// Each component owns a private append-only event buffer — no locks on the
// recording path — and buffers are merged, sorted and exported at flush
// time. The exporter emits Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto (ts mapped to wall-clock microseconds via the
// base tick), with one named thread track per component.
//
// The disabled path is structural, not conditional: a nil *Tracer hands out
// nil *Component handles and zero-value Scopes, and every recording method
// no-ops on its nil receiver. Model code can therefore instrument
// unconditionally; with tracing off the cost is a single predictable branch.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// baseTicksPerMicrosecond converts base cycles to trace microseconds:
// 6 GHz base clock → 6000 ticks per µs (one tick = 1/6 ns).
const baseTicksPerMicrosecond = 6000.0

// DefaultMaxEvents bounds a tracer's total buffered events. Past the cap new
// events are dropped (and counted); a long fdtd run can otherwise produce a
// multi-gigabyte trace nobody can load.
const DefaultMaxEvents = 4 << 20

// KV is one typed payload attribute attached to an event.
type KV struct {
	K string
	V any // string, integer or float — JSON-encoded at flush
}

// eventKind discriminates buffered events.
type eventKind uint8

const (
	evSpan    eventKind = iota // Chrome "X" complete event: start + duration
	evInstant                  // Chrome "i" instant event
)

// event is one buffered trace record. Timestamps are base cycles.
type event struct {
	kind  eventKind
	name  string
	start int64
	dur   int64
	args  []KV
}

// Tracer collects events from a set of components and exports them. Create
// one per simulated run; a nil Tracer is the disabled state and is safe to
// use everywhere.
type Tracer struct {
	// MaxEvents caps buffered events across all components (0 selects
	// DefaultMaxEvents). Set before recording starts.
	MaxEvents int64
	// Process is the process name the writer emits ("" selects
	// "distda-sim (base tick = 1/6 ns)").
	Process string

	mu     sync.Mutex // guards the component registry only
	comps  []*Component
	byName map[string]*Component

	total   atomic.Int64 // buffered events across components
	dropped atomic.Int64
}

// New returns an enabled tracer.
func New() *Tracer {
	return &Tracer{byName: map[string]*Component{}}
}

// Component returns the (possibly new) track with the given name. Returns
// nil on a nil tracer — the disabled fast path. Safe for concurrent use;
// recording on the returned component is not (one component belongs to one
// simulated run's goroutine).
func (t *Tracer) Component(name string) *Component {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.byName[name]; ok {
		return c
	}
	c := &Component{t: t, name: name, id: len(t.comps) + 1}
	t.comps = append(t.comps, c)
	t.byName[name] = c
	return c
}

// Dropped returns the number of events discarded over the MaxEvents cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Events returns the number of buffered events.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

func (t *Tracer) cap() int64 {
	if t.MaxEvents > 0 {
		return t.MaxEvents
	}
	return DefaultMaxEvents
}

// admit reserves one event slot, returning false when the cap is exhausted.
func (t *Tracer) admit() bool {
	if t.total.Add(1) > t.cap() {
		t.total.Add(-1)
		t.dropped.Add(1)
		return false
	}
	return true
}

// Component is one named track: a lock-free append-only event buffer owned
// by a single model component. All methods are nil-receiver safe.
type Component struct {
	t    *Tracer
	name string
	id   int
	evs  []event
}

// Name returns the track name ("" on nil).
func (c *Component) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// At returns a Scope stamping this component's events with the given base
// cycle offset — the bridge between a per-launch engine clock (which starts
// at zero every launch) and the run-global timeline. Safe on nil.
func (c *Component) At(offset int64) Scope { return Scope{c: c, off: offset} }

// Span records a complete event [start, start+dur) in component-local time.
func (c *Component) Span(name string, start, dur int64, args ...KV) {
	c.At(0).Span(name, start, dur, args...)
}

// Instant records a point event in component-local time.
func (c *Component) Instant(name string, ts int64, args ...KV) {
	c.At(0).Instant(name, ts, args...)
}

// Scope is a Component handle plus a base-cycle offset. The zero value is
// the disabled state: every method no-ops. Model objects embed a Scope field
// so instrumentation costs one nil check when tracing is off.
type Scope struct {
	c   *Component
	off int64
}

// Enabled reports whether events recorded through this scope are kept.
func (s Scope) Enabled() bool { return s.c != nil }

// Span records a complete event [start, start+dur) on the scope's track.
// start is in the scope's local clock; negative durations clamp to 0.
func (s Scope) Span(name string, start, dur int64, args ...KV) {
	if s.c == nil || !s.c.t.admit() {
		return
	}
	if dur < 0 {
		dur = 0
	}
	s.c.evs = append(s.c.evs, event{kind: evSpan, name: name, start: start + s.off, dur: dur, args: args})
}

// Instant records a point event on the scope's track.
func (s Scope) Instant(name string, ts int64, args ...KV) {
	if s.c == nil || !s.c.t.admit() {
		return
	}
	s.c.evs = append(s.c.evs, event{kind: evInstant, name: name, start: ts + s.off, args: args})
}

// Event is the exported read-only view of one buffered record, as handed to
// VisitEvents. Timestamps are engine base cycles on the run-global clock.
type Event struct {
	Track   string // component (track) name
	Name    string // event name
	Start   int64  // base cycle
	Dur     int64  // span duration in base cycles (0 for instants)
	Instant bool   // true for instant (point) events
}

// VisitEvents calls fn for every buffered event in deterministic order:
// components in registration order, each component's events in recording
// order. A nil tracer visits nothing. The tracer remains usable afterwards
// (events are not consumed).
//
// This is the supported aggregation surface for the profiling layer
// (internal/profile); packages outside it must not re-aggregate raw spans
// (scripts/verify.sh enforces this).
func (t *Tracer) VisitEvents(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	comps := append([]*Component(nil), t.comps...)
	t.mu.Unlock()
	for _, c := range comps {
		for i := range c.evs {
			ev := &c.evs[i]
			fn(Event{
				Track:   c.name,
				Name:    ev.name,
				Start:   ev.start,
				Dur:     ev.dur,
				Instant: ev.kind == evInstant,
			})
		}
	}
}

// chromeEvent is the trace_event JSON wire format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// usOf converts base cycles to trace microseconds.
func usOf(cycles int64) float64 { return float64(cycles) / baseTicksPerMicrosecond }

// WriteChromeJSON merges every component buffer, sorts events by (start
// cycle, component id, buffer order) and writes a Chrome trace_event JSON
// array. The output is deterministic for a deterministic run. The tracer
// remains usable afterwards (events are not consumed).
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	comps := append([]*Component(nil), t.comps...)
	t.mu.Unlock()

	type flat struct {
		ev   *event
		comp *Component
		seq  int
	}
	var all []flat
	for _, c := range comps {
		for i := range c.evs {
			all = append(all, flat{ev: &c.evs[i], comp: c, seq: i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.start != b.ev.start {
			return a.ev.start < b.ev.start
		}
		if a.comp.id != b.comp.id {
			return a.comp.id < b.comp.id
		}
		return a.seq < b.seq
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := func(e chromeEvent, last bool) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if !last {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	}
	// Metadata: process and per-component thread names and ordering.
	process := t.Process
	if process == "" {
		process = "distda-sim (base tick = 1/6 ns)"
	}
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": process},
	}}
	if d := t.Dropped(); d > 0 {
		meta = append(meta, chromeEvent{
			Name: "trace_dropped_events", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"dropped": d},
		})
	}
	for _, c := range comps {
		meta = append(meta,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: c.id,
				Args: map[string]any{"name": c.name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: c.id,
				Args: map[string]any{"sort_index": c.id}},
		)
	}
	for _, e := range meta {
		if err := enc(e, false); err != nil {
			return err
		}
	}
	for i, f := range all {
		ce := chromeEvent{Name: f.ev.name, Ts: usOf(f.ev.start), Pid: 1, Tid: f.comp.id}
		switch f.ev.kind {
		case evSpan:
			ce.Ph = "X"
			d := usOf(f.ev.dur)
			ce.Dur = &d
		case evInstant:
			ce.Ph = "i"
			ce.S = "t"
		}
		if len(f.ev.args) > 0 {
			ce.Args = make(map[string]any, len(f.ev.args))
			for _, kv := range f.ev.args {
				ce.Args[kv.K] = kv.V
			}
		}
		if err := enc(ce, i == len(all)-1); err != nil {
			return err
		}
	}
	if len(all) == 0 {
		// The metadata loop above always emitted trailing commas; close the
		// array with a harmless terminal metadata record.
		if err := enc(chromeEvent{Name: "trace_end", Ph: "M", Pid: 1, Tid: 0}, true); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Summary returns a one-line description for logs.
func (t *Tracer) Summary() string {
	if t == nil {
		return "trace: disabled"
	}
	t.mu.Lock()
	n := len(t.comps)
	t.mu.Unlock()
	return fmt.Sprintf("trace: %d events on %d tracks (%d dropped)", t.Events(), n, t.Dropped())
}
