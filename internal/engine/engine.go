// Package engine is the cycle-stepped simulation core. Components advance
// on their own clock edges derived from a common base clock, so a 2 GHz
// host, 1 GHz CGRA fabric and 3 GHz sensitivity configurations coexist in
// one run (base tick = 1/6 ns).
//
// The default scheduler is adaptive: it watches the observed wake density
// and switches per phase between a dense mode that steps every due clock
// edge with no event bookkeeping at all and the event-driven mode, in which
// components that can predict their next observable effect implement the
// optional Hinter interface and the engine fast-forwards over base cycles
// in which no live component can act instead of polling every component on
// every tick. Components are partitioned into per-divisor rings so a tick
// touches only due, live components; finished components are removed
// (order-preservingly) from their ring. The resulting cycle counts,
// per-component effect sequences and counters are bit-identical across all
// three modes; the naive one-tick-at-a-time loop (ModeNaive) is kept as
// the differential-testing reference.
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

// Component is a clocked simulation entity. Step is invoked once per edge
// of the component's clock with the current base cycle; it returns whether
// the component made forward progress (consumed/produced/retired/counted
// down a latency). Done reports completion.
//
// Contract: Done may only transition as a result of the component's own
// Step. (All in-tree components satisfy this; it lets the engine track
// completion incrementally instead of rescanning every component each
// tick.) A Step that reports no progress must leave all observable state —
// its own and any shared queues — unchanged: the scheduler relies on
// progress-free windows being state-preserving to reuse NextEvent claims
// without re-querying them.
type Component interface {
	Step(now int64) (progress bool)
	Done() bool
}

// Never is the NextEvent sentinel for "blocked on another component": the
// component will have no observable effect at any future edge unless some
// other component acts first. If every live component reports Never the
// engine declares deadlock.
const Never = int64(math.MaxInt64)

// Hinter is the optional fast-forward interface. NextEvent returns a lower
// bound on the base cycle of the component's next observable effect
// (state change, counter update, or completion), assuming no other
// component acts in the meantime:
//
//   - A value <= now means "poll me": step the component at its next clock
//     edge. Returning 0 is always safe.
//   - A future value T means the component is certain to be a no-op at
//     every one of its clock edges strictly before T (e.g. a latency timer
//     expiring at T). It must never be later than the true next effect;
//     claims must be monotone in the sense that re-asking at a later cycle
//     (with no intervening external action) never yields an earlier-passed
//     opportunity.
//   - Never means the component is blocked on a peer (empty input, full
//     output) and has no self-scheduled future event.
//
// The engine re-queries NextEvent on every processed cycle, so claims only
// need to hold under the no-external-action assumption; they may become
// stale the moment another component steps.
type Hinter interface {
	NextEvent(now int64) int64
}

// Mode selects the scheduling strategy. The zero value is ModeAdaptive,
// the default.
type Mode int

const (
	// ModeAdaptive watches the observed wake density and switches per
	// phase between dense stepping (every due clock edge, no nextWake
	// sweep) and the event-driven scheduler. This is the default.
	ModeAdaptive Mode = iota
	// ModeEvent always runs the event-driven fast-forward scheduler.
	ModeEvent
	// ModeNaive is the reference one-tick-at-a-time scheduler.
	ModeNaive
)

func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "adaptive"
	case ModeEvent:
		return "event"
	case ModeNaive:
		return "naive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses an engine mode name as accepted by the CLIs'
// -engine flag. The empty string means the default (adaptive).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "adaptive":
		return ModeAdaptive, nil
	case "event":
		return ModeEvent, nil
	case "naive":
		return ModeNaive, nil
	}
	return 0, fmt.Errorf("engine: unknown mode %q (want adaptive, event or naive)", s)
}

// entry is one registered component.
type entry struct {
	c    Component
	hint Hinter // nil when c does not implement Hinter
	div  int64
	id   int // registration order; defines intra-cycle step order

	// Cached NextEvent claim. A cached future claim is reusable while no
	// component in the engine has made progress since it was collected and
	// the owner has not been stepped (see nextWake); cachedWake is the
	// claim already aligned up to the owner's clock edge. cachedEpoch pins
	// the claim to the engine's claimEpoch at collection time.
	cachedClaim int64
	cachedWake  int64
	cachedEpoch uint64
}

// ring groups the live components sharing one clock divisor, in
// registration order.
type ring struct {
	div  int64
	ents []*entry
	// hot rotates nextWake's sweep start to the entry that most recently
	// settled the wake-up cycle: in steady pipeline phases the same busy
	// component keeps doing so, which lets the bounded sweep finish after
	// a single hint query. Purely a performance cursor — claims are
	// combined by min, so sweep order never affects the result.
	hot int
}

// Engine drives a set of components to completion.
type Engine struct {
	rings  []*ring
	byDiv  map[int64]*ring
	seen   map[Component]bool
	nextID int
	// ents holds every entry allocated so far; the first nextID are in
	// use. Reset rewinds nextID so a reused engine recycles them.
	ents   []*entry
	live   int   // registered components not yet removed as done
	maxDiv int64 // max divisor ever registered (hoisted from the run loop)
	now    int64

	// claimEpoch versions the cached NextEvent claims: it advances on
	// every processed cycle in which some component made progress (and at
	// the start of every Run, invalidating claims across any mutations
	// made between Runs), so a cached claim is reusable exactly while the
	// no-external-action assumption it was collected under still holds.
	claimEpoch uint64

	// parkWake caches the earliest future internal event at the moment
	// RunUntil parked, letting the next window skip straight to it (or
	// return immediately) while the no-external-action assumption holds.
	parkWake int64

	running bool

	// Trace, when enabled, records one span per Run plus one span per
	// fast-forward jump (the cycles the event-driven scheduler skipped).
	// The zero value is the disabled state; the recording path then costs a
	// single hoisted branch per Run, keeping the disabled-tracing overhead
	// inside the benchmark budget.
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
	// adaptive scheduler. All modes produce identical cycle counts and
	// component effect sequences. On error paths (deadlock vs. budget
	// exhaustion in the same window) the modes may report the failure at
	// slightly different base cycles.
	Mode Mode

	// Naive, when set, overrides Mode with ModeNaive: the reference
	// one-tick-at-a-time scheduler in which every base cycle is visited
	// and every live component is inspected (and stepped when due). It is
	// kept as a flag for differential tests written before Mode existed.
	Naive bool
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		byDiv:  map[int64]*ring{},
		seen:   map[Component]bool{},
		maxDiv: 1,
	}
}

// Add registers a component clocked at ghz. It panics when called while
// Run is in progress (components joining mid-run would see torn scheduler
// state) and when the same component is registered twice. Adding more
// components between Runs is legal; their clock edges continue from the
// engine's running base clock.
func (e *Engine) Add(c Component, ghz int) {
	if e.running {
		panic("engine: Add called during Run")
	}
	if c == nil {
		panic("engine: Add of nil component")
	}
	if e.seen == nil { // zero-value Engine
		e.byDiv = map[int64]*ring{}
		e.seen = map[Component]bool{}
		e.maxDiv = 1
	}
	if e.seen[c] {
		panic(fmt.Sprintf("engine: component %T registered twice", c))
	}
	e.seen[c] = true
	div := int64(Div(ghz))
	r := e.byDiv[div]
	if r == nil {
		r = &ring{div: div}
		e.byDiv[div] = r
		// Keep rings sorted by ascending divisor: the fastest clock owns
		// the earliest possible edge, so nextWake's bounded sweep can
		// terminate after inspecting it in the common case.
		at := len(e.rings)
		for i, o := range e.rings {
			if div < o.div {
				at = i
				break
			}
		}
		e.rings = append(e.rings, nil)
		copy(e.rings[at+1:], e.rings[at:])
		e.rings[at] = r
	}
	if e.nextID == len(e.ents) {
		e.ents = append(e.ents, &entry{})
	}
	ent := e.ents[e.nextID]
	*ent = entry{c: c, div: div, id: e.nextID}
	e.nextID++
	if h, ok := c.(Hinter); ok {
		ent.hint = h
	}
	r.ents = append(r.ents, ent)
	e.live++
	if div > e.maxDiv {
		e.maxDiv = div
	}
}

// Reset returns the engine to the state New leaves it in — no components,
// clock at zero, fast-forward counters and trace scope cleared — while
// keeping its rings, registration set and entry storage for reuse, so a
// simulator can drive many short launches through one engine without
// reallocating the scheduler. Mode and CollectFF are configuration and
// survive. It panics when called during Run.
func (e *Engine) Reset() {
	if e.running {
		panic("engine: Reset called during Run")
	}
	for _, r := range e.rings {
		clear(r.ents)
		r.ents, r.hot = r.ents[:0], 0
	}
	for _, ent := range e.ents[:e.nextID] {
		*ent = entry{}
	}
	clear(e.seen)
	e.nextID, e.live, e.maxDiv, e.now = 0, 0, 1, 0
	e.claimEpoch, e.parkWake = 0, 0
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
// the fast-forward scheduler, claims a future event), so a small window
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
	e.pruneDone()
	// Anything may have mutated component state between Runs (hosts push
	// into queues, components join); cached claims from a previous Run are
	// not trustworthy.
	e.claimEpoch++
	mode := e.Mode
	if e.Naive {
		mode = ModeNaive
	}
	switch mode {
	case ModeNaive:
		return e.runNaive(maxBaseCycles)
	case ModeEvent:
		return e.runFast(maxBaseCycles)
	default:
		return e.runAdaptive(maxBaseCycles)
	}
}

// RunUntil advances the engine until every component is done or the base
// clock reaches until, whichever comes first, using the event-driven
// scheduler. It reports whether the engine completed, whether any component
// made progress during the call, and the earliest future internal event the
// engine is parked on (Never when it completed or every live component is
// blocked on a peer).
//
// invalidate tells the engine whether external state was injected since the
// previous RunUntil (a window coordinator delivering cross-shard messages).
// When false the engine trusts the claims cached at its last parking point:
// an idle window costs O(1) instead of a full component sweep. Callers must
// pass true on the first call and after every external mutation.
//
// Unlike Run, a stretch in which every live component is blocked on a peer
// (NextEvent = Never) is not treated as deadlock: the engine parks at until
// and returns, on the assumption that the caller — a conservative
// time-window coordinator — will inject cross-shard work before the next
// window. Global deadlock detection is therefore the coordinator's job
// (shard.Graph declares it when every shard parks on Never with nothing in
// flight).
func (e *Engine) RunUntil(until int64, invalidate bool) (done, progress bool, next int64) {
	if e.running {
		panic("engine: RunUntil re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	if invalidate {
		e.pruneDone()
		e.claimEpoch++
		e.parkWake = 0
	}
	if e.live == 0 {
		return true, false, Never
	}
	if !invalidate && e.parkWake > e.now {
		// Nothing external happened and the engine parked knowing its next
		// event: skip the dead cycles without touching any component.
		if e.parkWake >= until {
			e.now = until
			return false, false, e.parkWake
		}
		e.now = e.parkWake
	}
	for {
		if e.now >= until {
			n, _, _ := e.nextWake(false)
			e.parkWake = n
			return false, progress, n
		}
		if e.stepDue() {
			progress = true
			e.claimEpoch++
		}
		if e.live == 0 {
			// Completion is observed one cycle after the completing step,
			// exactly as in Run's schedulers.
			e.now++
			e.parkWake = Never
			return true, progress, Never
		}
		n, _, _ := e.nextWake(false)
		if n >= until {
			// Park at the window boundary: either every live component is
			// blocked on a peer (n == Never) or the next event lies beyond
			// the window — report it so the coordinator can fast-forward.
			e.now = until
			e.parkWake = n
			return false, progress, n
		}
		e.now = n
	}
}

// pruneDone drops components that are already finished before the loop
// starts (components normally leave their ring at the step that completes
// them).
func (e *Engine) pruneDone() {
	for _, r := range e.rings {
		w := 0
		for _, ent := range r.ents {
			if ent.c.Done() {
				e.live--
				continue
			}
			r.ents[w] = ent
			w++
		}
		r.ents = r.ents[:w]
	}
}

// runFast is the event-driven scheduler: it processes only base cycles at
// which some live component may act and jumps the clock directly to the
// earliest claimed pending edge otherwise.
func (e *Engine) runFast(maxBaseCycles int64) (int64, error) {
	start := e.now
	var idle int64
	window := int64(deadlockWindow) * e.maxDiv
	traced := e.Trace.Enabled() // hoisted: the disabled path pays one branch per processed cycle
	obs := traced || e.CollectFF
	var jumps, skipped int64
	for {
		if e.live == 0 {
			if traced {
				e.finishRunSpan(start, jumps, skipped)
			}
			return e.now - start, nil
		}
		if e.now-start >= maxBaseCycles {
			return e.now - start, fmt.Errorf("engine: exceeded %d base cycles", maxBaseCycles)
		}
		progress := e.stepDue()
		if e.live == 0 {
			// The completing step happened this cycle; the naive loop
			// detects completion at the top of the next one.
			e.now++
			if traced {
				e.finishRunSpan(start, jumps, skipped)
			}
			return e.now - start, nil
		}
		if progress {
			e.claimEpoch++
		}
		next, future, _ := e.nextWake(progress)
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
			jumps++
			skipped += d
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

// Adaptive-mode thresholds. denseEnterStreak is how many consecutive
// progress cycles that woke exactly on the earliest possible clock edge
// are required before the scheduler stops sweeping hints and steps every
// due edge; denseRecheckEvery is how many dense progress cycles separate
// full hint sweeps looking for a fast-forward opportunity (it bounds the
// cycles wasted edge-stepping a phase that has turned sparse).
const (
	denseEnterStreak  = 24
	denseRecheckEvery = 64
)

// runAdaptive switches per phase between the event-driven scheduler and a
// dense mode that advances edge to edge with no nextWake sweep at all —
// the naive loop minus its redundant work. Both behaviors visit a
// superset of the cycles on which components act, so results stay
// bit-identical to the other schedulers; only the scheduler's own
// bookkeeping differs. A cycle without progress immediately drops back to
// the event-driven path (idle accounting there is identical because a
// dense phase by construction just made progress, so idle enters at
// zero), which also keeps deadlock reporting aligned with runFast.
func (e *Engine) runAdaptive(maxBaseCycles int64) (int64, error) {
	start := e.now
	var idle int64
	window := int64(deadlockWindow) * e.maxDiv
	traced := e.Trace.Enabled()
	obs := traced || e.CollectFF
	var jumps, skipped int64
	dense := false
	streak, sinceCheck := 0, 0
	for {
		if e.live == 0 {
			if traced {
				e.finishRunSpan(start, jumps, skipped)
			}
			return e.now - start, nil
		}
		if e.now-start >= maxBaseCycles {
			return e.now - start, fmt.Errorf("engine: exceeded %d base cycles", maxBaseCycles)
		}
		progress := e.stepDue()
		if e.live == 0 {
			e.now++
			if traced {
				e.finishRunSpan(start, jumps, skipped)
			}
			return e.now - start, nil
		}
		if progress {
			e.claimEpoch++
		}
		if dense {
			if !progress {
				// The phase ended; resweep below with event-mode idle
				// accounting (idle is zero entering, as in runFast after
				// a progress cycle).
				dense, streak, sinceCheck = false, 0, 0
			} else {
				next := int64(0)
				if sinceCheck++; sinceCheck >= denseRecheckEvery {
					// Periodic escape valve: a full sweep detects a phase
					// that kept progressing but went sparse (e.g. one
					// component streaming while the rest await a long
					// latency).
					sinceCheck = 0
					nw, _, _ := e.nextWake(false)
					if nw == Never {
						return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
					}
					next = nw
				}
				if edge := e.earliestEdge(); next <= edge {
					next = edge
				} else {
					dense, streak, sinceCheck = false, 0, 0 // real jump: go sparse
				}
				if lim := start + maxBaseCycles; next > lim {
					next = lim
				}
				if obs && next-e.now > 1 {
					d := next - e.now - 1
					if traced && d >= ffSpanMinCycles {
						e.Trace.Span("fast-forward", e.now+1, d, trace.KV{K: "cycles", V: d})
					}
					jumps++
					skipped += d
					e.FFJumps++
					e.FFSkipped += d
				}
				e.now = next
				continue
			}
		}
		next, future, bound := e.nextWake(progress)
		if next == Never {
			return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
		}
		if progress || future {
			idle = 0
		} else {
			idle += next - e.now
			if idle > window {
				return e.now - start, fmt.Errorf("engine: deadlock at base cycle %d (%s)", e.now, e.describeStuck())
			}
		}
		if progress && next == bound {
			// Woke on the earliest possible edge again: the phase looks
			// dense. After enough consecutive such cycles, stop sweeping.
			if streak++; streak >= denseEnterStreak {
				dense, streak, sinceCheck = true, 0, 0
			}
		} else {
			streak = 0
		}
		if lim := start + maxBaseCycles; next > lim {
			next = lim
		}
		if obs && next-e.now > 1 {
			d := next - e.now - 1
			if traced && d >= ffSpanMinCycles {
				e.Trace.Span("fast-forward", e.now+1, d, trace.KV{K: "cycles", V: d})
			}
			jumps++
			skipped += d
			e.FFJumps++
			e.FFSkipped += d
		}
		e.now = next
	}
}

// runNaive is the reference scheduler: one base cycle at a time. Relative
// to the original loop it keeps the incremental bookkeeping (completion
// via the live counter, maxDiv hoisted out of the idle path, finished
// components removed from their ring) but visits every cycle and inspects
// every live component.
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
		progress := e.stepDue()
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

// stepDue steps every live component whose clock edge falls on the current
// base cycle, in registration order across rings, removing components that
// finish. Returns whether any step reported progress.
func (e *Engine) stepDue() bool {
	// Collect the rings with an edge this cycle. Divisors divide BaseGHz,
	// so there are at most four.
	var due [8]*ring
	nd := 0
	for _, r := range e.rings {
		if e.now%r.div == 0 && len(r.ents) > 0 {
			if nd == len(due) {
				panic("engine: too many distinct divisors")
			}
			due[nd] = r
			nd++
		}
	}
	if nd == 0 {
		return false
	}
	if nd == 1 {
		return e.stepRing(due[0])
	}
	// k-way merge by registration id so intra-cycle step order matches the
	// flat registration-order loop (observable through shared buffers).
	progress := false
	var rd, wr [8]int
	for {
		best, bestID := -1, int(^uint(0)>>1)
		for i := 0; i < nd; i++ {
			if rd[i] < len(due[i].ents) && due[i].ents[rd[i]].id < bestID {
				best, bestID = i, due[i].ents[rd[i]].id
			}
		}
		if best < 0 {
			break
		}
		r := due[best]
		ent := r.ents[rd[best]]
		rd[best]++
		if ent.c.Done() { // finished without stepping (defensive)
			e.live--
			continue
		}
		ent.cachedClaim = 0 // own Step may move its next effect
		if ent.c.Step(e.now) {
			progress = true
		}
		if ent.c.Done() {
			e.live--
			continue
		}
		r.ents[wr[best]] = ent
		wr[best]++
	}
	for i := 0; i < nd; i++ {
		due[i].ents = due[i].ents[:wr[i]]
	}
	return progress
}

// stepRing steps one ring's components in order, compacting out the ones
// that finish.
func (e *Engine) stepRing(r *ring) bool {
	progress := false
	w := 0
	for _, ent := range r.ents {
		if ent.c.Done() {
			e.live--
			continue
		}
		ent.cachedClaim = 0 // own Step may move its next effect
		if ent.c.Step(e.now) {
			progress = true
		}
		if ent.c.Done() {
			e.live--
			continue
		}
		r.ents[w] = ent
		w++
	}
	r.ents = r.ents[:w]
	return progress
}

// nextWake collects a NextEvent claim from every live component and
// returns the earliest base cycle at which any of them may act (aligned up
// to the claimant's own clock edge, and never before now+1). future
// reports whether some component holds a genuine scheduled future event
// (as opposed to merely asking to be polled), which distinguishes latency
// countdowns from dead polling when accounting idle cycles. bound is the
// earliest possible clock edge when progress is set (-1 otherwise): the
// floor on any answer, which the adaptive scheduler compares against next
// to measure wake density.
//
// progress reports whether the just-processed cycle stepped anything. In
// that case the idle counter resets regardless of the future flag, so the
// sweep may stop as soon as the running minimum reaches the earliest
// possible next clock edge — no later claim can beat it. Each ring's
// sweep starts at the entry that most recently settled the wake-up (its
// hot cursor): in steady pipeline phases that is the same busy component
// again, so dense phases pay a single hint query per cycle.
//
// A future claim is cached on its entry and reused — skipping the
// NextEvent call — while the engine's claimEpoch is unchanged and the
// owner has not been stepped since collection. Both conditions together
// restate the Hinter contract's no-external-action assumption: progress
// bumps the epoch, and a progress-free Step leaves observable state (and
// therefore every component's next effect) unchanged, so a claim
// collected in the same progress-free window still holds. Reusing a claim
// can only schedule the same-or-earlier wake-up a fresh query would, so a
// stale-but-valid claim costs at most a no-op visit — exactly what the
// naive reference loop does every cycle.
//
// The sweep is read-only on component state: components finish only
// inside their own Step (see the Component contract), so stepDue and
// pruneDone own all ring removals and claims may be collected in any
// order (min is commutative).
func (e *Engine) nextWake(progress bool) (next int64, future bool, bound int64) {
	next = Never
	bound = -1
	if progress {
		bound = e.earliestEdge()
	}
	epoch := e.claimEpoch
	for _, r := range e.rings {
		n := len(r.ents)
		start := r.hot
		if start >= n {
			start = 0
		}
		for k := 0; k < n; k++ {
			i := start + k
			if i >= n {
				i -= n
			}
			ent := r.ents[i]
			if ent.c.Done() { // defensive; stepDue removes it at its next edge
				continue
			}
			var t int64
			if ent.cachedEpoch == epoch && ent.cachedClaim > e.now {
				future = true
				t = ent.cachedWake
			} else {
				var claim int64
				if ent.hint != nil {
					claim = ent.hint.NextEvent(e.now)
				}
				if claim == Never {
					continue // blocked on a peer: contributes no wake-up
				}
				t = claim
				if t <= e.now {
					t = e.now + 1
				}
				if rem := t % r.div; rem != 0 {
					t += r.div - rem // align up to the component's next edge
				}
				if claim > e.now {
					future = true
					ent.cachedClaim, ent.cachedWake, ent.cachedEpoch = claim, t, epoch
				}
			}
			if t < next {
				next = t
				if next <= bound {
					r.hot = i
					return next, future, bound
				}
			}
		}
	}
	return next, future, bound
}

// earliestEdge returns the earliest base cycle after now that is a clock
// edge of some non-empty ring — the floor on any nextWake answer.
func (e *Engine) earliestEdge() int64 {
	bound := Never
	for _, r := range e.rings {
		if len(r.ents) == 0 {
			continue
		}
		t := e.now + 1
		if rem := t % r.div; rem != 0 {
			t += r.div - rem
		}
		if t < bound {
			bound = t
		}
	}
	return bound
}

func (e *Engine) describeStuck() string {
	return fmt.Sprintf("%d components incomplete", e.live)
}
