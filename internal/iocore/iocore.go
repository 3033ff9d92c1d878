// Package iocore models the lightweight in-order accelerator core of the
// Dist-DA-IO / Mono-DA-IO configurations: it steps the compiler-generated
// 64-bit micro-program up to its issue width of operations per cycle,
// blocking on empty/full access buffers and on random-access latency.
//
// Seq, the in-order micro-op sequencer, is the part of the core every
// in-order substrate shares: the PIM-in-DRAM engine (internal/pimdram)
// embeds it and keeps only its own issue timing. Backend is the "iocore"
// accelerator backend; *Core is its backend.Engine.
package iocore

import (
	"fmt"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/microcode"
	"distda/internal/profile"
	"distda/internal/trace"
)

// MaxWidth is the widest in-order issue the model supports (Fig. 14's +SW
// configuration uses 4).
const MaxWidth = 8

// Backend is the "iocore" accelerator backend. It takes no options.
var Backend backend.Backend = ioBackend{}

type ioBackend struct{}

func (ioBackend) Caps() backend.Caps { return backend.Caps{MaxPortWidth: MaxWidth} }

func (ioBackend) ValidateOptions(opts backend.Options) error {
	return backend.NoOptions("iocore", opts)
}

func (ioBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	c := new(Core)
	if err := c.Reset(spec); err != nil {
		return nil, err
	}
	return c, nil
}

// Substrate is what sets one in-order substrate's sequencer apart.
type Substrate struct {
	Backend  string // backend name: prefixes errors and panics
	Label    string // trace and profile component kind ("core" names core:N)
	MaxWidth int    // widest request port accepted
	// FrontPJ selects the per-op front-end energy (fetch and decode, or
	// none) charged on top of each retired op's class cost.
	FrontPJ func(*energy.Table) float64
}

var ioSubstrate = &Substrate{Backend: "iocore", Label: "core", MaxWidth: MaxWidth,
	FrontPJ: func(t *energy.Table) float64 { return t.IOInstrPJ }}

// Seq is the in-order micro-op sequencer. It owns the program counter,
// the register file and the orchestrator (counted trips or while-input,
// completion), retires one micro-op at a time through Issue — consume and
// produce block on the access buffers, random accesses stall — and
// implements the scheduler's hints, the register file, Ops, Release and
// AttachTrace of backend.Engine. Its embedder supplies Step (how many ops
// issue per edge), Reset and AddProfile.
type Seq struct {
	sub   *Substrate
	def   *core.AccelDef
	prog  microcode.Program
	regs  [microcode.NumRegs]float64
	pc    int
	trips int64 // -1: while-input
	// inputs / output are indexed by access id: core.Validate guarantees
	// the ids are dense (0..n-1). Unwired accesses hold nil.
	inputs []*accessunit.InPort
	output []*accessunit.OutPort
	// tripIn caches the while-input watched port (nil unless trips < 0 and
	// the access is wired).
	tripIn *accessunit.InPort
	random *accessunit.RandomPort
	meter  *energy.Meter
	opPJ   [3]float64 // a retired op's energy by ir.OpClass (microcode.EnergyPJ)
	div    int64      // base cycles per clock edge

	stallUntil int64
	lastNow    int64 // most recent Step edge (timestamp for the done instant)
	done       bool
	latch      engine.Latch

	// Counters. ops (Ops) counts retired micro-ops; Iters counts completed
	// iterations and is the Iter op's value.
	ops      int64
	Iters    int64
	StallCyc int64

	// Trace, when enabled, records one span per stall and an instant at
	// orchestrator completion; set via AttachTrace (zero value disabled).
	Trace trace.Scope
	// StallHist, when non-nil, observes stall latencies (base cycles).
	StallHist *profile.Hist
}

// Arm re-arms s for spec as substrate sub's fresh sequencer: every
// register, counter and observability field is cleared. The program is
// validated on the definition's first launch of the run only (spec.Memo
// remembers it). The port slices are used in place, so the caller must
// not rewire them while the sequencer runs.
func (s *Seq) Arm(sub *Substrate, spec backend.LaunchSpec) error {
	if spec.Width > sub.MaxWidth {
		return fmt.Errorf("%s backend: port width %d exceeds the maximum %d", sub.Backend, spec.Width, sub.MaxWidth)
	}
	def := spec.Def
	if err := spec.Memo.ValidProgram(def); err != nil {
		return err
	}
	if len(def.Program) == 0 {
		return fmt.Errorf("%s: accel %d (%s) has empty program", sub.Backend, def.ID, def.Name)
	}
	n := len(def.Accesses)
	in, err := accessunit.PortsByID(spec.In, n)
	if err != nil {
		return fmt.Errorf("%s: accel %d: input %w", sub.Backend, def.ID, err)
	}
	out, err := accessunit.PortsByID(spec.Out, n)
	if err != nil {
		return fmt.Errorf("%s: accel %d: output %w", sub.Backend, def.ID, err)
	}
	*s = Seq{
		sub: sub, def: def, prog: def.Program, trips: spec.Trips,
		inputs: in, output: out, random: spec.Random, meter: spec.Meter,
		div: int64(engine.Div(spec.GHz)), StallHist: spec.LatHist,
	}
	if s.meter != nil {
		t := &s.meter.Table
		for c := range s.opPJ {
			s.opPJ[c] = microcode.EnergyPJ(t, sub.FrontPJ(t), ir.OpClass(c))
		}
	}
	if s.trips < 0 {
		if t := def.Trip.InputAccess; t >= 0 && t < n {
			s.tripIn = in[t]
		}
	}
	accessunit.SubscribePorts(&s.latch, in, out)
	return nil
}

// Release implements backend.Engine. A sequencer keeps no storage across
// launches, so it is cleared whole.
func (s *Seq) Release() { *s = Seq{} }

// Ops returns the retired micro-ops.
func (s *Seq) Ops() int64 { return s.ops }

// Div returns the sequencer's base-clock divisor.
func (s *Seq) Div() int64 { return s.div }

// SetReg initializes a register (cp_set_rf).
func (s *Seq) SetReg(r int, v float64) { s.regs[r] = v }

// Reg reads a register (cp_load_rf).
func (s *Seq) Reg(r int) float64 { return s.regs[r] }

// Done reports orchestrator completion.
func (s *Seq) Done() bool { return s.done }

// Latch implements engine.Hinter; every wired port's buffer wakes it.
func (s *Seq) Latch() *engine.Latch { return &s.latch }

// AttachTrace binds the sequencer's trace scope at the launch's
// base-cycle offset on the run-global timeline.
func (s *Seq) AttachTrace(tr *trace.Tracer, off int64) {
	s.Trace = tr.Component(fmt.Sprintf("%s:%d", s.sub.Label, s.def.ID)).At(off)
}

// Profile folds busy base cycles of useful work and the sequencer's stall
// time into the profiler and the launch's region.
func (s *Seq) Profile(p *profile.Profiler, r *profile.Region, busy int64) {
	label := fmt.Sprintf("%s:%d", s.sub.Label, s.def.ID)
	stall := s.StallCyc * s.div
	pc := p.Component(s.sub.Label, label)
	pc.AddBusy(busy)
	pc.AddStall(stall)
	pc.AddEvents(s.ops)
	r.AddComponent(label, busy+stall)
}

// Edge opens clock edge now. It reports whether ops may issue on it and,
// when none may, the progress Step reports: none once done, some while a
// stall counts down.
func (s *Seq) Edge(now int64) (issue, progress bool) {
	if s.done {
		return false, false
	}
	s.lastNow = now
	return now >= s.stallUntil, true
}

// Halted reports whether no further op may issue at edge now: the
// sequencer finished or stalls.
func (s *Seq) Halted(now int64) bool { return s.done || now < s.stallUntil }

// NextEvent implements engine.Hinter: a stalled sequencer's next effect is
// its stall expiry; one whose next micro-op is a consume on an
// empty-but-open buffer or a produce into a full buffer is blocked on a
// peer; everything else retires on the next edge.
func (s *Seq) NextEvent(now int64) int64 {
	if s.done {
		return engine.Finished
	}
	if now < s.stallUntil {
		return s.stallUntil
	}
	if s.pc == 0 && s.trips < 0 {
		if p := s.tripIn; p != nil && p.Buf.Drained(p.Reader) {
			return 0 // end of watched input: will finish
		}
	}
	op := &s.prog[s.pc] // by pointer: Op is large and this path runs per edge
	if op.Pred >= 0 && s.regs[op.Pred] == 0 {
		return 0 // predicated-off: retires as a nop
	}
	switch op.Code {
	case microcode.Consume:
		if p := s.inputs[op.Access]; p != nil && !p.Buf.CanPop(p.Reader) && !p.Buf.Drained(p.Reader) {
			return engine.Never // blocked on the producer
		}
	case microcode.Produce:
		if p := s.output[op.Access]; p != nil && !p.Buf.CanPush() {
			return engine.Never // blocked on the consumer
		}
	}
	return 0
}

// Stall blocks the sequencer until now+lat base cycles. The stalled clock
// edges — floor((lat-1)/div) fall strictly inside (now, now+lat) — are
// accounted here in bulk, so the engine may skip them.
func (s *Seq) Stall(now, lat int64) {
	if lat <= 0 {
		return
	}
	s.stallUntil = now + lat
	s.StallCyc += (lat - 1) / s.div
	if s.Trace.Enabled() {
		s.Trace.Span("stall", now, lat, trace.KV{K: "accel", V: int64(s.def.ID)})
	}
	s.StallHist.Observe(float64(lat))
}

// fail panics under the backend's prefix: the simulator surfaces these as
// configuration errors.
func (s *Seq) fail(format string, args ...any) {
	panic(fmt.Sprintf("%s: accel %d: %s", s.sub.Backend, s.def.ID, fmt.Sprintf(format, args...)))
}

// finish closes every output buffer so downstream drains and links
// terminate.
func (s *Seq) finish() {
	for _, p := range s.output {
		if p != nil && !p.Buf.Closed() {
			p.Buf.Close()
		}
	}
	s.done = true
	if s.Trace.Enabled() {
		s.Trace.Instant("done", s.lastNow, trace.KV{K: "accel", V: int64(s.def.ID)},
			trace.KV{K: "iters", V: s.Iters}, trace.KV{K: "ops", V: s.ops})
	}
}

func (s *Seq) retire(class ir.OpClass) {
	s.ops++
	if s.meter != nil {
		s.meter.Add(energy.CatAccel, s.opPJ[class])
	}
	s.pc++
	if s.pc == len(s.prog) {
		s.pc = 0
		s.Iters++
		if s.trips >= 0 && s.Iters >= s.trips {
			s.finish()
		}
	}
}

// Issue retires at most one micro-op at edge now. It reports whether it
// made progress: an op retired, or end of the watched input finished the
// orchestrator. An op blocked on an empty or full buffer makes none.
func (s *Seq) Issue(now int64) bool {
	// While-input orchestration: at iteration start, end-of-stream on the
	// watched input terminates the offload.
	if s.pc == 0 && s.trips < 0 {
		p := s.tripIn
		if p == nil {
			s.fail("while-input access %d not wired", s.def.Trip.InputAccess)
		}
		if p.Buf.Drained(p.Reader) {
			s.finish()
			return true
		}
	}
	op := &s.prog[s.pc] // by pointer: Op is large and this path runs per edge
	if op.Pred >= 0 && s.regs[op.Pred] == 0 {
		s.retire(ir.ClassInt) // predicated-off: retires as a nop
		return true
	}
	class := ir.ClassInt // channel and random-access ops
	switch op.Code {
	case microcode.Consume:
		p := s.inputs[op.Access]
		if p == nil {
			s.fail("access %d not wired as input", op.Access)
		}
		if !p.Buf.CanPop(p.Reader) {
			if p.Buf.Drained(p.Reader) {
				s.fail("consume on drained access %d (producer under-delivered)", op.Access)
			}
			return false // blocked on empty buffer
		}
		s.regs[op.Dst] = p.Buf.Pop(p.Reader)
	case microcode.Produce:
		p := s.output[op.Access]
		if p == nil {
			s.fail("access %d not wired as output", op.Access)
		}
		if !p.Buf.CanPush() {
			return false // blocked on full buffer (back-pressure)
		}
		p.Buf.Push(s.regs[op.A])
	case microcode.LoadObj:
		v, lat, err := s.random.Load(op.Obj, int64(s.regs[op.A]))
		if err != nil {
			s.fail("%v", err)
		}
		s.regs[op.Dst] = v
		s.Stall(now, int64(lat))
	case microcode.StoreObj:
		lat, err := s.random.Store(op.Obj, int64(s.regs[op.A]), s.regs[op.B])
		if err != nil {
			s.fail("%v", err)
		}
		s.Stall(now, min(int64(lat), 8)) // posted write: brief port occupancy only
	default:
		if err := op.Exec(&s.regs, s.Iters); err != nil {
			s.fail("%v", err)
		}
		class = op.Class()
	}
	s.retire(class)
	return true
}

// Core executes one accelerator definition on the in-order core.
type Core struct {
	Seq
	width int // micro-ops retired per cycle when nothing blocks
}

// Reset implements backend.Engine: it re-arms c for spec exactly as the
// backend's NewEngine(spec) builds a core.
func (c *Core) Reset(spec backend.LaunchSpec) error {
	c.width = max(spec.Width, 1)
	return c.Arm(ioSubstrate, spec)
}

// AddProfile folds the core's busy and stall time into the profiler and
// the launch's region. Busy time is derived from the retired-op count:
// ceil(Ops/width) issue cycles at the core's clock divisor.
func (c *Core) AddProfile(p *profile.Profiler, r *profile.Region) {
	w := int64(c.width)
	c.Profile(p, r, (c.ops+w-1)/w*c.div)
}

// Step advances one core clock edge, retiring up to the issue width of
// micro-ops in order. It returns whether progress was made (a retired op, a
// counted-down stall, or a detected end-of-input).
func (c *Core) Step(now int64) bool {
	if issue, progress := c.Edge(now); !issue {
		return progress
	}
	if c.width == 1 {
		return c.Issue(now) // single issue: no intra-cycle dependences to track
	}
	progress := false
	var written uint64 // registers written this cycle
	for i := 0; i < c.width; i++ {
		op := &c.prog[c.pc]
		// In-order multi-issue: an op reading a register written this cycle
		// waits for the next cycle.
		if i > 0 && op.Reads()&written != 0 {
			break
		}
		dst := op.Writes()
		if !c.Issue(now) {
			break
		}
		progress = true
		if dst >= 0 {
			written |= 1 << uint(dst)
		}
		if c.Halted(now) {
			break
		}
	}
	return progress
}
