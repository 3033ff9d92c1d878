// Package pimdram models a processing-in-memory backend in the spirit of
// DaPPA: streaming kernels execute at the DRAM channel on bank-level
// compute units. The engine interprets the same compiler-generated 64-bit
// micro-programs as the in-order core, but its timing model is memory-side:
//
//   - Bank-level parallelism retires a whole iteration's micro-ops in one
//     engine cycle when no channel is blocked (compute is effectively free
//     next to the arrays).
//   - Issue is channel-bandwidth bound: an iteration streaming B bytes
//     cannot initiate more often than ceil(B / ChanBytesPerCycle) engine
//     cycles — the DRAM channel, not the ALUs, is the bottleneck.
//   - Random accesses pay the raw DRAM access latency through the
//     memory-controller path; resident data never traverses the on-chip
//     NoC (the simulator places PIM engines at the memory-controller node
//     and feeds them through the direct-DRAM fetcher).
//
// The backend registers as "pimdram"; sim configs select it with
// WithBackend("pimdram") or per-region via the compiler's PIM threshold.
package pimdram

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

// ChanBytesPerCycle is the modeled DRAM channel bandwidth per engine cycle
// at 1 GHz (≈16 GB/s, an LPDDR channel's peak).
const ChanBytesPerCycle = 16

// MaxWidth bounds the request port width; the iteration-at-a-time issue
// model makes widths beyond the per-iteration op count meaningless, so the
// cap only guards nonsense configs.
const MaxWidth = 4

func init() { backend.Register(pimBackend{}) }

type pimBackend struct{}

func (pimBackend) Name() string { return "pimdram" }

func (pimBackend) Caps() backend.Caps {
	return backend.Caps{MaxPortWidth: MaxWidth, InDRAM: true, RandomAccess: true}
}

func (pimBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		return fmt.Errorf("pimdram backend: unknown option %q", kv.Key)
	}
	return nil
}

func (pimBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	e := new(Engine)
	if err := e.Reset(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// Engine executes one accelerator definition at the DRAM channel. It is
// the backend's backend.Engine.
type Engine struct {
	def   *core.AccelDef
	prog  microcode.Program
	regs  [microcode.NumRegs]float64
	pc    int
	iter  int64
	trips int64 // -1: while-input
	// inputs / output are indexed by access id (core.Validate guarantees
	// dense ids); unwired accesses hold nil.
	inputs []*accessunit.InPort
	output []*accessunit.OutPort
	tripIn *accessunit.InPort
	random *accessunit.RandomPort
	meter  *energy.Meter
	div    int64

	// iterBytes is the static per-iteration channel traffic: the summed
	// element bytes of every stream/channel consume and produce in the
	// program (predication ignored — an upper bound is the right shape for
	// a bandwidth bottleneck).
	iterBytes int64

	stallUntil int64
	lastNow    int64
	done       bool
	latch      engine.Latch

	// Counters. ops (Ops) counts retired micro-ops.
	ops      int64
	Iters    int64
	StallCyc int64

	// Trace records one span per bandwidth or random-access stall and an
	// instant at completion; set via AttachTrace (zero value disabled).
	Trace trace.Scope
	// StallHist observes stall latencies in base cycles (nil-safe).
	StallHist *profile.Hist
}

// Reset implements backend.Engine: it re-arms e for spec exactly as the
// backend's NewEngine(spec) builds an engine. The program is validated on
// the definition's first launch of the run only (spec.Memo remembers it).
func (e *Engine) Reset(spec backend.LaunchSpec) error {
	if spec.Width > MaxWidth {
		return fmt.Errorf("pimdram backend: port width %d exceeds the maximum %d", spec.Width, MaxWidth)
	}
	def := spec.Def
	if err := spec.Memo.ValidProgram(def); err != nil {
		return err
	}
	if len(def.Program) == 0 {
		return fmt.Errorf("pimdram: accel %d (%s) has empty program", def.ID, def.Name)
	}
	n := len(def.Accesses)
	in, err := accessunit.PortsByID(spec.In, n)
	if err != nil {
		return fmt.Errorf("pimdram: accel %d: input %w", def.ID, err)
	}
	out, err := accessunit.PortsByID(spec.Out, n)
	if err != nil {
		return fmt.Errorf("pimdram: accel %d: output %w", def.ID, err)
	}
	*e = Engine{
		def: def, prog: def.Program, trips: spec.Trips,
		inputs: in, output: out,
		random: spec.Random,
		meter:  spec.Meter,
		div:    int64(engine.Div(spec.GHz)),
	}
	if spec.Trips < 0 {
		if t := def.Trip.InputAccess; t >= 0 && t < n {
			e.tripIn = e.inputs[t]
		}
	}
	for i := range e.prog {
		switch op := &e.prog[i]; op.Code {
		case microcode.Consume, microcode.Produce:
			e.iterBytes += int64(def.Accesses[op.Access].ElemBytes)
		}
	}
	e.StallHist = spec.LatHist
	accessunit.SubscribePorts(&e.latch, in, out)
	return nil
}

// Release implements backend.Engine. An engine keeps no storage across
// launches, so it is cleared whole.
func (e *Engine) Release() { *e = Engine{} }

// Ops returns the retired micro-ops.
func (e *Engine) Ops() int64 { return e.ops }

// BusyBaseCycles is the engine's useful-work time in base cycles: one
// issue cycle per iteration (bank-level units retire the whole iteration).
func (e *Engine) BusyBaseCycles() int64 { return e.Iters * e.div }

// StallBaseCycles is the engine's stalled time (channel bandwidth plus
// random-access latency) in base cycles.
func (e *Engine) StallBaseCycles() int64 { return e.StallCyc * e.div }

// SetReg initializes a register (cp_set_rf).
func (e *Engine) SetReg(r int, v float64) { e.regs[r] = v }

// Reg reads a register (cp_load_rf).
func (e *Engine) Reg(r int) float64 { return e.regs[r] }

// Done reports orchestrator completion.
func (e *Engine) Done() bool { return e.done }

// finish closes every output buffer so downstream drains and links
// terminate.
func (e *Engine) finish() {
	for _, p := range e.output {
		if p == nil {
			continue
		}
		if !p.Buf.Closed() {
			p.Buf.Close()
		}
	}
	e.done = true
	if e.Trace.Enabled() {
		e.Trace.Instant("done", e.lastNow, trace.KV{K: "accel", V: int64(e.def.ID)},
			trace.KV{K: "iters", V: e.Iters}, trace.KV{K: "ops", V: e.ops})
	}
}

// setStall blocks the engine until now+lat, accounting the stalled engine
// edges in bulk so the scheduler may fast-forward over them.
func (e *Engine) setStall(now, lat int64) {
	if lat <= 0 {
		return
	}
	e.stallUntil = now + lat
	e.StallCyc += (lat - 1) / e.div
	if e.Trace.Enabled() {
		e.Trace.Span("stall", now, lat, trace.KV{K: "accel", V: int64(e.def.ID)})
	}
	e.StallHist.Observe(float64(lat))
}

// Step advances one engine clock edge: it retires micro-ops until the
// current iteration completes, a channel blocks, or a random access
// stalls. Returns whether progress was made.
func (e *Engine) Step(now int64) bool {
	if e.done {
		return false
	}
	e.lastNow = now
	if now < e.stallUntil {
		return true
	}
	progress := false
	startIter := e.iter
	for {
		p := e.step1(now)
		progress = progress || p
		if !p || e.done || now < e.stallUntil {
			break
		}
		if e.iter != startIter {
			// Iteration boundary: charge the channel-bandwidth bound. The
			// next edge is one engine cycle away already, so only the excess
			// beyond one cycle stalls.
			if bw := (e.iterBytes + ChanBytesPerCycle - 1) / ChanBytesPerCycle; bw > 1 {
				e.setStall(now, (bw-1)*e.div)
			}
			break
		}
	}
	return progress
}

// Latch implements engine.Hinter; every wired port's buffer wakes it.
func (e *Engine) Latch() *engine.Latch { return &e.latch }

// NextEvent implements the scheduler's fast-forward hint, mirroring the
// in-order core: stalled engines wake at stall expiry; a consume on an
// empty-but-open buffer or a produce into a full one is blocked on a peer.
func (e *Engine) NextEvent(now int64) int64 {
	if e.done {
		return engine.Finished
	}
	if now < e.stallUntil {
		return e.stallUntil
	}
	if e.pc == 0 && e.trips < 0 {
		if p := e.tripIn; p != nil && p.Buf.Drained(p.Reader) {
			return 0 // end of watched input: will finish
		}
	}
	op := &e.prog[e.pc]
	if op.Pred >= 0 && e.regs[op.Pred] == 0 {
		return 0 // predicated-off: retires as a nop
	}
	switch op.Code {
	case microcode.Consume:
		if p := e.inputs[op.Access]; p != nil && !p.Buf.CanPop(p.Reader) && !p.Buf.Drained(p.Reader) {
			return engine.Never // blocked on the producer
		}
	case microcode.Produce:
		if p := e.output[op.Access]; p != nil && !p.Buf.CanPush() {
			return engine.Never // blocked on the consumer
		}
	}
	return 0
}

func (e *Engine) retire(class ir.OpClass) {
	e.ops++
	if e.meter != nil {
		// Bank-level units have no fetch/decode front end; the per-op cost
		// is the in-DRAM ALU itself.
		t := &e.meter.Table
		x := t.PIMOpPJ
		switch class {
		case ir.ClassInt:
			x += t.IntOpPJ
		case ir.ClassComplex:
			x += t.ComplexOpPJ
		case ir.ClassFloat:
			x += t.FloatOpPJ
		}
		e.meter.Add(energy.CatAccel, x)
	}
	e.pc++
	if e.pc == len(e.prog) {
		e.pc = 0
		e.iter++
		e.Iters++
		if e.trips >= 0 && e.iter >= e.trips {
			e.finish()
		}
	}
}

// step1 retires at most one micro-op; functional semantics match the
// reference interpreter (and the in-order core) exactly.
func (e *Engine) step1(now int64) bool {
	if e.pc == 0 && e.trips < 0 {
		p := e.tripIn
		if p == nil {
			panic(fmt.Sprintf("pimdram: accel %d: while-input access %d not wired", e.def.ID, e.def.Trip.InputAccess))
		}
		if p.Buf.Drained(p.Reader) {
			e.finish()
			return true
		}
	}
	op := &e.prog[e.pc]
	if op.Pred >= 0 && e.regs[op.Pred] == 0 {
		e.retire(ir.ClassInt) // predicated-off: retires as a nop
		return true
	}
	switch op.Code {
	case microcode.Nop:
		e.retire(ir.ClassInt)
	case microcode.Consume:
		p := e.inputs[op.Access]
		if p == nil {
			panic(fmt.Sprintf("pimdram: accel %d: access %d not wired as input", e.def.ID, op.Access))
		}
		if !p.Buf.CanPop(p.Reader) {
			if p.Buf.Drained(p.Reader) {
				panic(fmt.Sprintf("pimdram: accel %d: consume on drained access %d (producer under-delivered)", e.def.ID, op.Access))
			}
			return false // blocked on empty buffer
		}
		e.regs[op.Dst] = p.Buf.Pop(p.Reader)
		e.retire(ir.ClassInt)
	case microcode.Produce:
		p := e.output[op.Access]
		if p == nil {
			panic(fmt.Sprintf("pimdram: accel %d: access %d not wired as output", e.def.ID, op.Access))
		}
		if !p.Buf.CanPush() {
			return false // blocked on full buffer (back-pressure)
		}
		p.Buf.Push(e.regs[op.A])
		e.retire(ir.ClassInt)
	case microcode.LoadObj:
		v, lat, err := e.random.Load(op.Obj, int64(e.regs[op.A]))
		if err != nil {
			panic(fmt.Sprintf("pimdram: accel %d: %v", e.def.ID, err))
		}
		e.regs[op.Dst] = v
		e.setStall(now, int64(lat))
		e.retire(ir.ClassInt)
	case microcode.StoreObj:
		lat, err := e.random.Store(op.Obj, int64(e.regs[op.A]), e.regs[op.B])
		if err != nil {
			panic(fmt.Sprintf("pimdram: accel %d: %v", e.def.ID, err))
		}
		// Posted write into the row buffer: brief port occupancy only.
		occ := int64(lat)
		if occ > 8 {
			occ = 8
		}
		e.setStall(now, occ)
		e.retire(ir.ClassInt)
	case microcode.ALU:
		e.regs[op.Dst] = e.apply(op.Bin, e.regs[op.A], e.regs[op.B])
		e.retire(op.Bin.Class())
	case microcode.ALUI:
		e.regs[op.Dst] = e.apply(op.Bin, e.regs[op.A], op.Imm)
		e.retire(op.Bin.Class())
	case microcode.Un:
		e.regs[op.Dst] = ir.ApplyUn(op.UnOp, e.regs[op.A])
		e.retire(op.UnOp.Class())
	case microcode.SelOp:
		if e.regs[op.C] != 0 {
			e.regs[op.Dst] = e.regs[op.A]
		} else {
			e.regs[op.Dst] = e.regs[op.B]
		}
		e.retire(ir.ClassInt)
	case microcode.MovI:
		e.regs[op.Dst] = op.Imm
		e.retire(ir.ClassInt)
	case microcode.Mov:
		e.regs[op.Dst] = e.regs[op.A]
		e.retire(ir.ClassInt)
	case microcode.Iter:
		e.regs[op.Dst] = float64(e.iter)
		e.retire(ir.ClassInt)
	default:
		panic(fmt.Sprintf("pimdram: accel %d: bad opcode %v", e.def.ID, op.Code))
	}
	return true
}

func (e *Engine) apply(op ir.BinOp, a, b float64) float64 {
	v, err := ir.ApplyBin(op, a, b)
	if err != nil {
		panic(fmt.Sprintf("pimdram: accel %d: %v", e.def.ID, err))
	}
	return v
}

// AttachTrace binds the engine's trace scope on the run-global timeline.
func (e *Engine) AttachTrace(tr *trace.Tracer, off int64) {
	e.Trace = tr.Component(fmt.Sprintf("pim:%d", e.def.ID)).At(off)
}

// AddProfile folds the engine's cycle attribution into the profiler.
func (e *Engine) AddProfile(p *profile.Profiler, r *profile.Region) {
	label := fmt.Sprintf("pim:%d", e.def.ID)
	pc := p.Component("pim", label)
	pc.AddBusy(e.BusyBaseCycles())
	pc.AddStall(e.StallBaseCycles())
	pc.AddEvents(e.ops)
	r.AddComponent(label, e.BusyBaseCycles()+e.StallBaseCycles())
}
