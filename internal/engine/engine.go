// Package engine is the cycle-stepped simulation core. Components advance
// on their own clock edges derived from a common base clock, so a 2 GHz
// host, 1 GHz CGRA fabric and 3 GHz sensitivity configurations coexist in
// one run (base tick = 1/6 ns).
//
// The default scheduler is wake-driven. Every live component carries the
// next base cycle at which it must step. A component that can predict its
// next observable effect implements the optional Hinter interface: after
// each of its steps the engine asks NextEvent, and trusts the answer until
// the component's Latch is woken, which every queue the claim was read
// from does on mutation. The claim also carries completion: a finished
// Hinter claims Finished, so a stepped Hinter costs two dynamic calls
// (Step and NextEvent) and Done is asked only of poll-only components. A
// cycle steps only the components on its clock phase whose next-step
// cycle has come, and the clock jumps straight to the earliest pending
// one, so components blocked on a peer or waiting on a timer cost
// nothing. Components without the interface are stepped on every one of
// their clock edges. Cycle counts, per-component effect sequences and
// counters are bit-identical to the naive one-tick-at-a-time loop
// (ModeNaive), which ignores claims and latches and asks Done after every
// step; it is kept as the differential-testing reference.
package engine

import (
	"fmt"
	"math"

	"distda/internal/trace"
)

// BaseGHz is the base clock. Divisors: 6 GHz base → 1 GHz = 6, 2 GHz = 3,
// 3 GHz = 2.
const BaseGHz = 6

// Div returns the base-clock divisor for a component clocked at ghz.
func Div(ghz int) int {
	if ghz <= 0 || BaseGHz%ghz != 0 {
		panic(fmt.Sprintf("engine: unsupported clock %d GHz (base %d)", ghz, BaseGHz))
	}
	return BaseGHz / ghz
}

// edgeAfter[d][r] is the distance from a base cycle of phase r (its value
// mod BaseGHz) to the next clock edge of divisor d strictly after it. Every
// divisor divides BaseGHz, so the phase fixes it, and the scheduler's hot
// paths align cycles to edges without dividing.
var edgeAfter = func() (t [BaseGHz + 1][BaseGHz]int64) {
	for d := int64(1); d <= BaseGHz; d++ {
		for r := int64(0); r < BaseGHz; r++ {
			t[d][r] = d - r%d
		}
	}
	return t
}()

// Component is a clocked simulation entity. Step is invoked once per edge
// of the component's clock with the current base cycle; it returns whether
// the component made forward progress (consumed/produced/retired/counted
// down a latency). Done reports completion.
//
// Contract: Done may only transition as a result of the component's own
// Step. (All in-tree components satisfy this; it lets the engine track
// completion incrementally instead of rescanning every component each
// tick.) A Step that reports no progress must leave all observable state —
// its own and any shared queues — unchanged.
type Component interface {
	Step(now int64) (progress bool)
	Done() bool
}

// Never is the NextEvent sentinel for "blocked on another component": the
// component will have no observable effect at any future edge unless some
// other component acts first. If every live component reports Never the
// engine declares deadlock.
const Never = int64(math.MaxInt64)

// Finished is the NextEvent claim of a component whose Done reports true.
// The wake-driven scheduler retires a Hinter on this claim instead of
// asking Done, so a Hinter must claim Finished exactly when it is done.
const Finished = int64(math.MinInt64)

// Latch is a component's wake-up line. The component owns it and hands it
// to every queue its NextEvent reads; each mutation of such a queue calls
// Wake, which makes the engine step the component again at its next clock
// edge. The zero value is unregistered and Wake on it does nothing, so a
// queue may wake a component before (or without) it joining an engine. A
// spurious wake is always safe: it costs one step that reports no effect.
type Latch struct{ at *int64 }

// Wake schedules the latch's component for its next clock edge.
func (l *Latch) Wake() {
	if l.at != nil {
		*l.at = 0
	}
}

// Hinter is the optional wake-driven interface. NextEvent returns a lower
// bound on the base cycle of the component's next observable effect
// (state change, counter update, or completion), assuming none of the
// queues wired to its Latch changes in the meantime:
//
//   - A value <= now means "poll me": step the component at its next clock
//     edge. Returning 0 is always safe.
//   - A future value T means the component is certain to be a no-op at
//     every one of its clock edges strictly before T (e.g. a latency timer
//     expiring at T). It must never be later than the true next effect.
//   - Never means the component is blocked on a peer (empty input, full
//     output) and has no self-scheduled future event.
//   - Finished means the component is done (its Done reports true). It is
//     the only claim a done component may make, and only a done one may
//     make it.
//
// The engine asks NextEvent right after each of the component's steps and
// trusts the claim until the Latch is woken: it does not step the
// component before the claimed cycle, and never after a Never claim, until
// then. The wake-driven scheduler learns of completion from the claim and
// does not call a Hinter's Done after its steps. NextEvent may therefore
// read only the component's own state and queues that wake the Latch on
// every mutation that could move the claim earlier.
type Hinter interface {
	NextEvent(now int64) int64
	Latch() *Latch
}

// Mode selects the scheduling strategy. The zero value is ModeAdaptive,
// the default.
type Mode int

const (
	// ModeAdaptive is the wake-driven scheduler: it steps a component only
	// when its claim comes due or its Latch is woken. This is the default.
	ModeAdaptive Mode = iota
	// ModeNaive is the reference one-tick-at-a-time scheduler: it ignores
	// claims and latches and steps every component on every clock edge.
	// Only the differential tests select it; it is never a user option.
	ModeNaive
)

func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "adaptive"
	case ModeNaive:
		return "naive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// entry is one registered component.
type entry struct {
	c     Component
	hint  Hinter // nil when c does not implement Hinter
	latch *Latch // hint's latch; points at this entry's at while registered
	div   int64
	// at is the base cycle from which the component must be stepped again
	// (aligned to its own edge): 0 when due at its next edge, Never while
	// it sleeps until woken or once it has retired. Only hinted entries
	// ever hold a future value.
	at   int64
	done bool
}

// Engine drives a set of components to completion.
type Engine struct {
	// phases[p] lists the entries with a clock edge on base cycles
	// congruent to p mod BaseGHz, in registration order (which defines
	// intra-cycle step order). phases[0] holds every entry. A retired
	// entry keeps at == Never, so the scheduler passes over it; it leaves
	// a list the next time that phase is stepped, which dirty[p] flags.
	// A list is rewritten only then.
	phases [BaseGHz][]*entry
	dirty  [BaseGHz]bool
	// sink receives the wakes of retired entries: a retired Hinter's latch
	// points here until Reset detaches it, so a late wake cannot revive
	// the entry, and re-adding the component still panics.
	sink int64
	// ents holds every entry allocated so far; the first n are in use.
	// Reset rewinds n so a reused engine recycles them.
	ents   []*entry
	n      int
	live   int   // registered components not yet finished
	maxDiv int64 // max divisor ever registered (hoisted from the run loop)
	now    int64

	// liveDiv and pollDiv count live entries, and live entries without a
	// Hinter, per divisor. edgeOff[p] is the distance from a cycle of
	// phase p to the next clock edge of any live entry, and pollEdge[p]
	// whether a poll-only entry has that edge: then nothing can be due
	// earlier and the next cycle is known without scanning claims.
	liveDiv, pollDiv [BaseGHz + 1]int
	edgeOff          [BaseGHz]int64
	pollEdge         [BaseGHz]bool

	running bool

	// Trace, when enabled, records one span per Run plus one span per
	// fast-forward jump (the cycles the scheduler skipped). The zero value
	// is the disabled state; the recording path then costs a single hoisted
	// branch per Run, keeping the disabled-tracing overhead inside the
	// benchmark budget.
	Trace trace.Scope

	// CollectFF, when set, accumulates fast-forward scheduler statistics
	// (FFJumps / FFSkipped) even with tracing disabled, for the profiling
	// layer. Like tracing, the flag's cost is one hoisted branch per
	// processed cycle and it never affects scheduling decisions.
	CollectFF bool
	// FFJumps counts fast-forward jumps across Runs; FFSkipped counts the
	// base cycles those jumps never visited. Populated when CollectFF or
	// tracing is enabled.
	FFJumps, FFSkipped int64

	// Mode selects the scheduling strategy; the zero value is the default
	// wake-driven scheduler. All modes produce identical cycle counts and
	// component effect sequences. On error paths (deadlock vs. budget
	// exhaustion in the same window) the modes may report the failure at
	// slightly different base cycles.
	Mode Mode
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{maxDiv: 1}
}

// Add registers a component clocked at ghz. It panics when called while
// Run is in progress (components joining mid-run would see torn scheduler
// state) and when the same component is registered twice. Adding more
// components between Runs is legal; their clock edges continue from the
// engine's running base clock.
//
// A Hinter registered twice is caught by its Latch, which Add attaches
// and only Reset detaches; a poll-only component by a scan of the
// registered entries (no in-tree simulator component is poll-only).
func (e *Engine) Add(c Component, ghz int) {
	if e.running {
		panic("engine: Add called during Run")
	}
	if c == nil {
		panic("engine: Add of nil component")
	}
	if e.maxDiv == 0 { // zero-value Engine
		e.maxDiv = 1
	}
	h, hinted := c.(Hinter)
	var latch *Latch
	if hinted {
		latch = h.Latch()
		if latch.at != nil {
			panic(fmt.Sprintf("engine: component %T registered twice (or its latch is shared)", c))
		}
	} else {
		for _, ent := range e.ents[:e.n] {
			if ent.hint == nil && ent.c == c {
				panic(fmt.Sprintf("engine: component %T registered twice", c))
			}
		}
	}
	div := int64(Div(ghz))
	if e.n == len(e.ents) {
		e.ents = append(e.ents, &entry{})
	}
	ent := e.ents[e.n]
	e.n++
	*ent = entry{c: c, div: div}
	if hinted {
		ent.hint, ent.latch = h, latch
		latch.at = &ent.at
	} else {
		e.pollDiv[div]++
	}
	for p := int64(0); p < BaseGHz; p += div {
		e.phases[p] = append(e.phases[p], ent)
	}
	e.liveDiv[div]++
	e.live++
	if div > e.maxDiv {
		e.maxDiv = div
	}
}

// Reset returns the engine to the state New leaves it in — no components,
// clock at zero, fast-forward counters and trace scope cleared — while
// keeping its phase lists and entry storage for reuse,
// so a simulator can drive many short launches through one engine without
// reallocating the scheduler. The latches of the dropped components are
// detached. Mode and CollectFF are configuration and survive. It panics
// when called during Run.
func (e *Engine) Reset() {
	if e.running {
		panic("engine: Reset called during Run")
	}
	for p := range e.phases {
		clear(e.phases[p])
		e.phases[p] = e.phases[p][:0]
	}
	e.dirty = [BaseGHz]bool{}
	for _, ent := range e.ents[:e.n] {
		if ent.latch != nil {
			ent.latch.at = nil
		}
		*ent = entry{}
	}
	e.liveDiv, e.pollDiv = [BaseGHz + 1]int{}, [BaseGHz + 1]int{}
	e.n, e.live, e.maxDiv, e.now = 0, 0, 1, 0
	e.Trace = trace.Scope{}
	e.FFJumps, e.FFSkipped = 0, 0
}

// Now returns the current base cycle.
func (e *Engine) Now() int64 { return e.now }

// Live returns the number of registered components not yet finished.
func (e *Engine) Live() int { return e.live }

// ffSpanMinCycles is the shortest fast-forward jump that earns its own
// trace span. Shorter jumps (clock-edge alignment gaps) are still counted
// in the Run span's ff_jumps / ff_skipped_cycles aggregates.
const ffSpanMinCycles = 32

// deadlockWindow is how many consecutive progress-free base cycles (with
// incomplete components) are treated as deadlock. Every legitimate wait in
// the model counts down a timer and therefore reports progress (or, under
// the wake-driven scheduler, claims a future event), so a small window
// suffices.
const deadlockWindow = 8

// Run advances until every component is done, returning the elapsed base
// cycles. It fails on deadlock or when maxBaseCycles elapses.
func (e *Engine) Run(maxBaseCycles int64) (int64, error) {
	if e.running {
		panic("engine: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.prepare()
	if e.Mode == ModeNaive {
		return e.runNaive(maxBaseCycles)
	}
	return e.runWake(maxBaseCycles)
}

// prepare drops components that are already finished (components normally
// leave at the step that completes them) and makes every live one due at
// its next edge: anything may have changed between Runs (hosts push into
// queues, components join), so no earlier claim is trusted.
func (e *Engine) prepare() {
	for _, ent := range e.phases[0] {
		if ent.done {
			continue
		}
		if ent.c.Done() {
			e.retire(ent)
			continue
		}
		ent.at = 0
	}
	for p := range e.phases {
		e.compact(int64(p))
	}
	e.updateEdges()
}

// compact drops retired entries from phase p's list if it holds any.
func (e *Engine) compact(p int64) {
	if !e.dirty[p] {
		return
	}
	e.dirty[p] = false
	list := e.phases[p]
	w := 0
	for _, ent := range list {
		if !ent.done {
			list[w] = ent
			w++
		}
	}
	clear(list[w:])
	e.phases[p] = list[:w]
}

// retire marks a finished entry; the phase lists drop it lazily.
func (e *Engine) retire(ent *entry) {
	ent.done = true
	ent.at = Never
	if ent.latch != nil {
		ent.latch.at = &e.sink
	}
	for p := int64(0); p < BaseGHz; p += ent.div {
		e.dirty[p] = true
	}
	e.live--
	e.liveDiv[ent.div]--
	last := e.liveDiv[ent.div] == 0
	if ent.hint == nil {
		e.pollDiv[ent.div]--
		last = last || e.pollDiv[ent.div] == 0
	}
	if last {
		e.updateEdges()
	}
}

// updateEdges recomputes edgeOff and pollEdge from the live counts.
func (e *Engine) updateEdges() {
	for p := int64(0); p < BaseGHz; p++ {
		off, poll := Never, false
		for d := int64(1); d <= BaseGHz; d++ {
			if e.liveDiv[d] == 0 {
				continue
			}
			t := edgeAfter[d][p]
			if t < off {
				off, poll = t, false
			}
			if t == off && e.pollDiv[d] > 0 {
				poll = true
			}
		}
		e.edgeOff[p], e.pollEdge[p] = off, poll
	}
}

// runWake is the wake-driven scheduler: it processes only base cycles at
// which some live component is due and jumps the clock directly to the
// earliest pending one otherwise.
func (e *Engine) runWake(maxBaseCycles int64) (int64, error) {
	start := e.now
	var idle int64
	window := int64(deadlockWindow) * e.maxDiv
	traced := e.Trace.Enabled() // hoisted: the disabled path pays one branch per processed cycle
	obs := traced || e.CollectFF
	j0, s0 := e.FFJumps, e.FFSkipped
	for {
		if e.live == 0 {
			if traced {
				e.finishRunSpan(start, e.FFJumps-j0, e.FFSkipped-s0)
			}
			return e.now - start, nil
		}
		if e.now-start >= maxBaseCycles {
			return e.now - start, fmt.Errorf("engine: exceeded %d base cycles", maxBaseCycles)
		}
		p := e.now % BaseGHz
		progress, soon := e.step(p)
		if e.live == 0 {
			// The completing step happened this cycle; the naive loop
			// detects completion at the top of the next one.
			e.now++
			if traced {
				e.finishRunSpan(start, e.FFJumps-j0, e.FFSkipped-s0)
			}
			return e.now - start, nil
		}
		next, future := e.next(p, progress, soon)
		if next == Never {
			return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
		}
		if progress || future {
			idle = 0
		} else {
			// Pure polling with no progress: account every skipped base
			// cycle, exactly as the naive per-cycle loop would.
			idle += next - e.now
			if idle > window {
				return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
			}
		}
		if lim := start + maxBaseCycles; next > lim {
			next = lim // land on the budget boundary, like the naive loop
		}
		if obs && next-e.now > 1 {
			d := next - e.now - 1 // cycles the scheduler never visited
			// Per-jump spans only for jumps long enough to mean a real
			// latency (memory lines, drained pipelines); ordinary clock-edge
			// gaps would bury every other track under millions of slivers.
			// The aggregate counters still see every jump.
			if traced && d >= ffSpanMinCycles {
				e.Trace.Span("fast-forward", e.now+1, d, trace.KV{K: "cycles", V: d})
			}
			e.FFJumps++
			e.FFSkipped += d
		}
		e.now = next
	}
}

// finishRunSpan emits the Run-level span on the engine's trace track.
func (e *Engine) finishRunSpan(start, jumps, skipped int64) {
	e.Trace.Span("engine.Run", start, e.now-start,
		trace.KV{K: "cycles", V: e.now - start},
		trace.KV{K: "ff_jumps", V: jumps},
		trace.KV{K: "ff_skipped_cycles", V: skipped})
}

// runNaive is the reference scheduler: one base cycle at a time, stepping
// every live component on every one of its clock edges.
func (e *Engine) runNaive(maxBaseCycles int64) (int64, error) {
	start := e.now
	var idle int64
	window := int64(deadlockWindow) * e.maxDiv
	traced := e.Trace.Enabled()
	for {
		if e.live == 0 {
			if traced {
				e.finishRunSpan(start, 0, 0)
			}
			return e.now - start, nil
		}
		if e.now-start >= maxBaseCycles {
			return e.now - start, fmt.Errorf("engine: exceeded %d base cycles", maxBaseCycles)
		}
		progress := e.stepNaive(e.now % BaseGHz)
		if e.live == 0 {
			e.now++
			if traced {
				e.finishRunSpan(start, 0, 0)
			}
			return e.now - start, nil
		}
		if progress {
			idle = 0
		} else {
			idle++
			if idle > window {
				return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
			}
		}
		e.now++
	}
}

// step steps, in registration order, every live component with a clock
// edge on the current base cycle (of phase p) whose next-step cycle has
// come, records each stepped Hinter's claim as its next-step cycle and
// retires the components that finish. A Hinter costs two dynamic calls,
// Step and NextEvent, which also reports completion; a poll-only component
// costs Step and Done. Returns whether any step reported progress, and
// soon: the distance from now to the earliest next edge of a Hinter that
// claimed to be due at once (Never if none did), for next.
//
// A wake raised by an earlier component this cycle makes a later one due
// this cycle; a wake for a component already passed takes effect at its
// next edge — the same visibility the naive loop gives.
func (e *Engine) step(p int64) (progress bool, soon int64) {
	now := e.now
	soon = Never
	for _, ent := range e.phases[p] {
		if ent.at > now {
			continue // sleeping, claimed a later cycle, or retired
		}
		if ent.c.Step(now) {
			progress = true
		}
		if ent.hint == nil {
			if ent.c.Done() {
				e.retire(ent)
			}
			continue
		}
		switch t := ent.hint.NextEvent(now); {
		case t <= now:
			if t == Finished {
				e.retire(ent)
				continue
			}
			ent.at = 0
			soon = min(soon, edgeAfter[ent.div][p])
		case t == Never:
			ent.at = Never
		default:
			t-- // align up to the component's own edge: its first one after t-1
			ent.at = t + edgeAfter[ent.div][t%BaseGHz]
		}
	}
	e.compact(p)
	return progress, soon
}

// stepNaive is step for the reference loop: it steps every live component
// on the phase and asks each one's Done, ignoring claims, so next-step
// cycles stay 0.
func (e *Engine) stepNaive(p int64) bool {
	now := e.now
	progress := false
	for _, ent := range e.phases[p] {
		if ent.done {
			continue
		}
		if ent.c.Step(now) {
			progress = true
		}
		if ent.c.Done() {
			e.retire(ent)
		}
	}
	e.compact(p)
	return progress
}

// next returns the earliest base cycle after now (of phase p) at which
// some live component is due. future reports whether some component holds
// a genuine scheduled future event (as opposed to being due at its next
// edge), which distinguishes latency countdowns from dead polling when
// accounting idle cycles; it is only computed when the cycle made no
// progress, since progress resets the idle count anyway.
//
// Nothing can be due before the earliest clock edge of a live component,
// so when the cycle made progress and that edge belongs to a poll-only
// component (always due) or to a Hinter that step saw claim to be due at
// once (soon, the offset step returned), the answer needs no scan;
// otherwise the scan stops as soon as it reaches that edge.
func (e *Engine) next(p int64, progress bool, soon int64) (next int64, future bool) {
	bound := e.now + e.edgeOff[p]
	if progress && (e.pollEdge[p] || soon == e.edgeOff[p]) {
		return bound, false
	}
	next = Never
	for _, ent := range e.phases[0] {
		t := ent.at
		if t == Never {
			continue // asleep until woken, or retired
		}
		if t > e.now {
			future = true
		} else {
			t = e.now + edgeAfter[ent.div][p]
		}
		if t < next {
			next = t
			if progress && next <= bound {
				return next, future
			}
		}
	}
	return next, future
}

func (e *Engine) describeStuck() string {
	return fmt.Sprintf("%d components incomplete", e.live)
}
