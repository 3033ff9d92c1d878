// Package iocore models the lightweight single-issue in-order accelerator
// core of the Dist-DA-IO / Mono-DA-IO configurations: it steps the
// compiler-generated 64-bit micro-program one operation per cycle, blocking
// on empty/full access buffers and on random-access latency.
package iocore

import (
	"fmt"

	"distda/internal/accessunit"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/microcode"
	"distda/internal/profile"
	"distda/internal/trace"
)

// Core executes one accelerator definition.
type Core struct {
	def   *core.AccelDef
	prog  microcode.Program
	regs  [microcode.NumRegs]float64
	pc    int
	iter  int64
	trips int64 // -1: while-input
	// inputs / output are indexed by access id: core.Validate guarantees the
	// ids are dense (0..n-1), so a slice index replaces the map lookup the
	// per-retired-op path used to pay (hash + probe, profile-visible across
	// the whole repro). Unwired accesses hold nil.
	inputs []*accessunit.InPort
	output []*accessunit.OutPort
	// tripIn caches the while-input watched port (nil unless trips < 0 and
	// the access is wired), hoisting the lookup out of the per-iteration
	// end-of-stream check.
	tripIn *accessunit.InPort
	random *accessunit.RandomPort
	meter  *energy.Meter

	stallUntil int64
	lastNow    int64 // most recent Step edge (timestamp for the done instant)
	done       bool
	latch      engine.Latch

	// Width is the issue width: micro-ops retired per cycle when nothing
	// blocks (Fig. 14's +SW configuration uses 4). Zero means 1.
	Width int

	// ClockDiv is the core's base-clock divisor (engine.Div of its clock).
	// When set, random-access stall cycles are accounted in bulk at the
	// stall-issuing edge and NextEvent lets the engine skip the stalled
	// edges entirely. When zero (legacy), StallCyc increments once per
	// stalled clock edge and NextEvent degrades to polling, which keeps
	// the wake-driven and naive schedulers identical either way.
	ClockDiv int64

	// Counters.
	Ops        int64 // retired micro-ops
	IntOps     int64
	ComplexOps int64
	FloatOps   int64
	Iters      int64
	StallCyc   int64

	// Trace, when enabled, records one span per random-access stall and an
	// instant at orchestrator completion. Set after construction (the zero
	// value is disabled); timing is unaffected either way.
	Trace trace.Scope
	// StallHist, when non-nil, observes random-access stall latencies (base
	// cycles).
	StallHist *profile.Hist
}

// New builds a core for def. trips < 0 selects while-input orchestration
// watching def.Trip.InputAccess. inputs and outputs are indexed by access
// id (see accessunit.PortsByID); a full-length slice is used in place, so
// the caller must not rewire it while the core runs.
func New(def *core.AccelDef, trips int64, inputs []*accessunit.InPort, outputs []*accessunit.OutPort,
	random *accessunit.RandomPort, meter *energy.Meter) (*Core, error) {
	if err := def.Program.Validate(len(def.Accesses)); err != nil {
		return nil, err
	}
	n := len(def.Accesses)
	in, err := accessunit.PortsByID(inputs, n)
	if err != nil {
		return nil, fmt.Errorf("iocore: accel %d: input %w", def.ID, err)
	}
	out, err := accessunit.PortsByID(outputs, n)
	if err != nil {
		return nil, fmt.Errorf("iocore: accel %d: output %w", def.ID, err)
	}
	c := &Core{
		def: def, prog: def.Program, trips: trips,
		inputs: in, output: out, random: random, meter: meter,
	}
	if trips < 0 {
		if t := def.Trip.InputAccess; t >= 0 && t < n {
			c.tripIn = c.inputs[t]
		}
	}
	if len(c.prog) == 0 {
		return nil, fmt.Errorf("iocore: accel %d (%s) has empty program", def.ID, def.Name)
	}
	accessunit.SubscribePorts(&c.latch, in, out)
	return c, nil
}

// BusyBaseCycles returns the core's useful-work time in engine base cycles,
// derived analytically from the retired-op count (ceil(Ops/Width) issue
// cycles at the core's clock divisor) — a profiling accessor, no hot-path
// counters.
func (c *Core) BusyBaseCycles() int64 {
	width := int64(c.Width)
	if width <= 0 {
		width = 1
	}
	div := c.ClockDiv
	if div <= 0 {
		div = 1
	}
	return (c.Ops + width - 1) / width * div
}

// StallBaseCycles returns the core's stalled time in engine base cycles.
func (c *Core) StallBaseCycles() int64 {
	div := c.ClockDiv
	if div <= 0 {
		div = 1
	}
	return c.StallCyc * div
}

// SetReg initializes a register (cp_set_rf).
func (c *Core) SetReg(r int, v float64) { c.regs[r] = v }

// Reg reads a register (cp_load_rf).
func (c *Core) Reg(r int) float64 { return c.regs[r] }

// Done reports orchestrator completion.
func (c *Core) Done() bool { return c.done }

// finish closes every output buffer so downstream drains and links
// terminate.
func (c *Core) finish() {
	for _, p := range c.output {
		if p == nil {
			continue
		}
		if !p.Buf.Closed() {
			p.Buf.Close()
		}
	}
	c.done = true
	if c.Trace.Enabled() {
		c.Trace.Instant("done", c.lastNow, trace.KV{K: "accel", V: int64(c.def.ID)},
			trace.KV{K: "iters", V: c.Iters}, trace.KV{K: "ops", V: c.Ops})
	}
}

func (c *Core) retire(class ir.OpClass) {
	c.Ops++
	switch class {
	case ir.ClassInt:
		c.IntOps++
	case ir.ClassComplex:
		c.ComplexOps++
	case ir.ClassFloat:
		c.FloatOps++
	}
	if c.meter != nil {
		t := &c.meter.Table // by pointer: the table is ~17 words, copied per retired op otherwise
		e := t.IOInstrPJ
		switch class {
		case ir.ClassInt:
			e += t.IntOpPJ
		case ir.ClassComplex:
			e += t.ComplexOpPJ
		case ir.ClassFloat:
			e += t.FloatOpPJ
		}
		c.meter.Add(energy.CatAccel, e)
	}
	c.pc++
	if c.pc == len(c.prog) {
		c.pc = 0
		c.iter++
		c.Iters++
		if c.trips >= 0 && c.iter >= c.trips {
			c.finish()
		}
	}
}

// Step advances one core clock edge. Returns whether progress was made
// (a retired op, a counted-down stall, or a detected end-of-input).
func (c *Core) Step(now int64) bool {
	if c.done {
		return false
	}
	c.lastNow = now
	if now < c.stallUntil {
		if c.ClockDiv <= 0 {
			c.StallCyc++ // legacy per-edge accounting
		}
		return true
	}
	width := c.Width
	if width <= 0 {
		width = 1
	}
	progress := false
	// written is a register bitmask (NumRegs <= 64): Step runs on every
	// core clock edge, and the map it replaced was a fresh allocation per
	// edge — visible in the whole-repro profile.
	var written uint64
	for i := 0; i < width; i++ {
		// In-order multi-issue: an op reading a register written this cycle
		// waits for the next cycle.
		if i > 0 && c.pc < len(c.prog) && readsAny(&c.prog[c.pc], written) {
			break
		}
		var wrote int = -1
		if c.pc < len(c.prog) {
			if d, ok := destOf(&c.prog[c.pc]); ok {
				wrote = d
			}
		}
		p := c.step1(now)
		progress = progress || p
		if p && wrote >= 0 {
			written |= 1 << uint(wrote)
		}
		if !p || c.done || now < c.stallUntil {
			break
		}
	}
	return progress
}

// setStall blocks the core until now+lat. With ClockDiv set the stalled
// clock edges are accounted here in bulk — floor((lat-1)/div) edges fall
// strictly inside (now, now+lat) — so the engine may skip them; without it
// Step counts them one edge at a time.
func (c *Core) setStall(now, lat int64) {
	c.stallUntil = now + lat
	if c.ClockDiv > 0 && lat > 0 {
		c.StallCyc += (lat - 1) / c.ClockDiv
	}
	if lat > 0 {
		if c.Trace.Enabled() {
			c.Trace.Span("stall", now, lat, trace.KV{K: "accel", V: int64(c.def.ID)})
		}
		c.StallHist.Observe(float64(lat))
	}
}

// Latch implements engine.Hinter; every wired port's buffer wakes it.
func (c *Core) Latch() *engine.Latch { return &c.latch }

// NextEvent implements engine.Hinter: a stalled core's next effect is its
// stall expiry (when ClockDiv is known); a core whose next micro-op is a
// consume on an empty-but-open buffer or a produce into a full buffer is
// blocked on a peer; everything else retires on the next edge.
func (c *Core) NextEvent(now int64) int64 {
	if c.done {
		return 0
	}
	if now < c.stallUntil {
		if c.ClockDiv > 0 {
			return c.stallUntil
		}
		return 0 // legacy mode: poll every edge to count stall cycles
	}
	if c.pc == 0 && c.trips < 0 {
		if p := c.tripIn; p != nil && p.Buf.Drained(p.Reader) {
			return 0 // end of watched input: will finish
		}
	}
	op := &c.prog[c.pc] // by pointer: Op is large and this path runs per edge
	if op.Pred >= 0 && c.regs[op.Pred] == 0 {
		return 0 // predicated-off: retires as a nop
	}
	switch op.Code {
	case microcode.Consume:
		if p := c.inputs[op.Access]; p != nil && !p.Buf.CanPop(p.Reader) && !p.Buf.Drained(p.Reader) {
			return engine.Never // blocked on the producer
		}
	case microcode.Produce:
		if p := c.output[op.Access]; p != nil && !p.Buf.CanPush() {
			return engine.Never // blocked on the consumer
		}
	}
	return 0
}

// readsAny reports whether op reads any register in the set bitmask.
func readsAny(op *microcode.Op, set uint64) bool {
	in := func(r int) bool { return r >= 0 && set&(1<<uint(r)) != 0 }
	if in(op.Pred) {
		return true
	}
	switch op.Code {
	case microcode.Produce, microcode.LoadObj, microcode.ALUI, microcode.Un, microcode.Mov:
		return in(op.A)
	case microcode.StoreObj, microcode.ALU:
		return in(op.A) || in(op.B)
	case microcode.SelOp:
		return in(op.A) || in(op.B) || in(op.C)
	default:
		return false
	}
}

// destOf returns the register an op writes, if any.
func destOf(op *microcode.Op) (int, bool) {
	switch op.Code {
	case microcode.Consume, microcode.LoadObj, microcode.ALU, microcode.ALUI,
		microcode.Un, microcode.SelOp, microcode.MovI, microcode.Mov, microcode.Iter:
		return op.Dst, true
	default:
		return 0, false
	}
}

// step1 retires at most one micro-op.
func (c *Core) step1(now int64) bool {
	// While-input orchestration: at iteration start, end-of-stream on the
	// watched input terminates the offload.
	if c.pc == 0 && c.trips < 0 {
		p := c.tripIn
		if p == nil {
			panic(fmt.Sprintf("iocore: accel %d: while-input access %d not wired", c.def.ID, c.def.Trip.InputAccess))
		}
		if p.Buf.Drained(p.Reader) {
			c.finish()
			return true
		}
	}
	op := &c.prog[c.pc] // by pointer: Op is large and this path runs per edge
	if op.Pred >= 0 && c.regs[op.Pred] == 0 {
		c.retire(ir.ClassInt) // predicated-off: retires as a nop
		return true
	}
	switch op.Code {
	case microcode.Nop:
		c.retire(ir.ClassInt)
	case microcode.Consume:
		p := c.inputs[op.Access]
		if p == nil {
			panic(fmt.Sprintf("iocore: accel %d: access %d not wired as input", c.def.ID, op.Access))
		}
		if !p.Buf.CanPop(p.Reader) {
			if p.Buf.Drained(p.Reader) {
				panic(fmt.Sprintf("iocore: accel %d: consume on drained access %d (producer under-delivered)", c.def.ID, op.Access))
			}
			return false // blocked on empty buffer
		}
		c.regs[op.Dst] = p.Buf.Pop(p.Reader)
		c.retire(ir.ClassInt)
	case microcode.Produce:
		p := c.output[op.Access]
		if p == nil {
			panic(fmt.Sprintf("iocore: accel %d: access %d not wired as output", c.def.ID, op.Access))
		}
		if !p.Buf.CanPush() {
			return false // blocked on full buffer (back-pressure)
		}
		p.Buf.Push(c.regs[op.A])
		c.retire(ir.ClassInt)
	case microcode.LoadObj:
		v, lat, err := c.random.Load(op.Obj, int64(c.regs[op.A]))
		if err != nil {
			panic(fmt.Sprintf("iocore: accel %d: %v", c.def.ID, err))
		}
		c.regs[op.Dst] = v
		c.setStall(now, int64(lat))
		c.retire(ir.ClassInt)
	case microcode.StoreObj:
		lat, err := c.random.Store(op.Obj, int64(c.regs[op.A]), c.regs[op.B])
		if err != nil {
			panic(fmt.Sprintf("iocore: accel %d: %v", c.def.ID, err))
		}
		// Posted write: brief port occupancy only.
		occ := int64(lat)
		if occ > 8 {
			occ = 8
		}
		c.setStall(now, occ)
		c.retire(ir.ClassInt)
	case microcode.ALU:
		c.regs[op.Dst] = c.apply(op.Bin, c.regs[op.A], c.regs[op.B])
		c.retire(op.Bin.Class())
	case microcode.ALUI:
		c.regs[op.Dst] = c.apply(op.Bin, c.regs[op.A], op.Imm)
		c.retire(op.Bin.Class())
	case microcode.Un:
		c.regs[op.Dst] = ir.ApplyUn(op.UnOp, c.regs[op.A])
		c.retire(op.UnOp.Class())
	case microcode.SelOp:
		if c.regs[op.C] != 0 {
			c.regs[op.Dst] = c.regs[op.A]
		} else {
			c.regs[op.Dst] = c.regs[op.B]
		}
		c.retire(ir.ClassInt)
	case microcode.MovI:
		c.regs[op.Dst] = op.Imm
		c.retire(ir.ClassInt)
	case microcode.Mov:
		c.regs[op.Dst] = c.regs[op.A]
		c.retire(ir.ClassInt)
	case microcode.Iter:
		c.regs[op.Dst] = float64(c.iter)
		c.retire(ir.ClassInt)
	default:
		panic(fmt.Sprintf("iocore: accel %d: bad opcode %v", c.def.ID, op.Code))
	}
	return true
}

// apply evaluates a binary op, panicking on arithmetic faults (the
// simulator surfaces these as configuration errors).
func (c *Core) apply(op ir.BinOp, a, b float64) float64 {
	v, err := ir.ApplyBin(op, a, b)
	if err != nil {
		panic(fmt.Sprintf("iocore: accel %d: %v", c.def.ID, err))
	}
	return v
}
