package cgra

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

// Fabric executes one accelerator definition on a statically mapped grid:
// iterations are initiated every II fabric cycles when operands are
// available, complete Depth cycles later, and deliver their produced
// operands in order.
type Fabric struct {
	def   *core.AccelDef
	prog  microcode.Program
	plan  *Plan
	regs  [microcode.NumRegs]float64
	trips int64 // -1: while-input
	iter  int64

	// inputs / outputs are indexed by access id: core.Validate guarantees
	// the ids are dense (0..n-1), so a slice index replaces the map lookup
	// on the per-iteration operand paths. Unwired accesses hold nil.
	inputs  []*accessunit.InPort
	outputs []*accessunit.OutPort
	// tripIn caches the while-input watched port (nil unless trips < 0 and
	// the access is wired).
	tripIn *accessunit.InPort
	random *accessunit.RandomPort
	meter  *energy.Meter

	div int64 // fabric clock divisor (base cycles per fabric cycle)

	nextStart int64
	// inflight is a ring of initiated iterations in completion order:
	// nfl flights starting at slot flHead. A slot keeps its outs storage
	// when it is recycled, so a steady pipeline does not allocate.
	inflight    []flight
	flHead, nfl int
	lastNow     int64
	done        bool
	latch       engine.Latch

	// Counters.
	Ops   int64
	Iters int64

	// Trace, when enabled, records one span per memory-extended iteration
	// (initiations whose latency exceeds the pipeline depth because of
	// random-access stalls) and an instant at completion. Set after
	// construction; timing is unaffected either way.
	Trace trace.Scope
	// IterHist, when non-nil, observes per-iteration initiation-to-ready
	// latencies (base cycles).
	IterHist *profile.Hist
}

// flight is one initiated iteration; outs[next:] are its undelivered
// produced operands.
type flight struct {
	ready int64
	outs  []outVal
	next  int
}

// head returns the oldest in-flight iteration (nfl > 0).
func (f *Fabric) head() *flight { return &f.inflight[f.flHead] }

// pushFlight appends a slot to the ring, doubling it when full, and
// returns it with its outs storage emptied for reuse.
func (f *Fabric) pushFlight() *flight {
	if f.nfl == len(f.inflight) {
		grown := make([]flight, 2*len(f.inflight)+1)
		for i := 0; i < f.nfl; i++ {
			grown[i] = f.inflight[(f.flHead+i)%len(f.inflight)]
		}
		f.inflight, f.flHead = grown, 0
	}
	fl := &f.inflight[(f.flHead+f.nfl)%len(f.inflight)]
	f.nfl++
	fl.outs, fl.next = fl.outs[:0], 0
	return fl
}

// popFlight retires the oldest in-flight iteration.
func (f *Fabric) popFlight() {
	f.flHead = (f.flHead + 1) % len(f.inflight)
	f.nfl--
}

// tail returns the newest in-flight iteration (nfl > 0).
func (f *Fabric) tail() *flight {
	return &f.inflight[(f.flHead+f.nfl-1)%len(f.inflight)]
}

type outVal struct {
	access int
	v      float64
}

// consumeReq is one input access the fabric pops from each iteration.
type consumeReq struct {
	access int
	n      int64 // operands consumed per iteration
}

// Plan is the launch-invariant part of a fabric: an accelerator
// definition's modulo schedule on one grid and the per-iteration operand
// demands of its program. Computing it is the expensive part of fabric
// construction (Map's dependence analysis is cubic in the program length),
// so a caller launching the same definition repeatedly builds the plan
// once and passes it to every NewFabric. A Plan is read-only and may be
// shared by concurrent fabrics.
type Plan struct {
	def *core.AccelDef
	// Mapping is the modulo schedule.
	Mapping Mapping
	// consumes lists each consumed input access and its consumes per
	// iteration, in ascending access order (a slice instead of a map keeps
	// the per-initiation operand scan cheap and its order deterministic).
	consumes []consumeReq
	nprod    int // produce ops per iteration: pre-sizes each flight's outs
}

// NewPlan maps def's program onto g.
func NewPlan(def *core.AccelDef, g GridConfig) (*Plan, error) {
	m, err := Map(def.Program, g)
	if err != nil {
		return nil, fmt.Errorf("cgra: accel %d (%s): %w", def.ID, def.Name, err)
	}
	n := len(def.Accesses)
	cnt := make([]int64, n)
	p := &Plan{def: def, Mapping: m}
	for oi := range def.Program {
		op := &def.Program[oi]
		switch op.Code {
		case microcode.Consume, microcode.Produce:
			if op.Access < 0 || op.Access >= n {
				return nil, fmt.Errorf("cgra: accel %d: access id %d out of range [0,%d)", def.ID, op.Access, n)
			}
			if op.Code == microcode.Consume {
				cnt[op.Access]++
			} else {
				p.nprod++
			}
		}
	}
	for acc, c := range cnt {
		if c > 0 {
			p.consumes = append(p.consumes, consumeReq{access: acc, n: c})
		}
	}
	return p, nil
}

// NewFabric returns the executor of plan's definition. trips < 0 selects
// while-input orchestration. inputs and outputs are indexed by access id
// (see accessunit.PortsByID); a full-length slice is used in place, so the
// caller must not rewire it while the fabric runs.
func NewFabric(plan *Plan, trips int64, inputs []*accessunit.InPort, outputs []*accessunit.OutPort,
	random *accessunit.RandomPort, div int64, meter *energy.Meter) (*Fabric, error) {
	def := plan.def
	if div <= 0 {
		return nil, fmt.Errorf("cgra: invalid clock divisor %d", div)
	}
	n := len(def.Accesses)
	in, err := accessunit.PortsByID(inputs, n)
	if err != nil {
		return nil, fmt.Errorf("cgra: accel %d: input %w", def.ID, err)
	}
	out, err := accessunit.PortsByID(outputs, n)
	if err != nil {
		return nil, fmt.Errorf("cgra: accel %d: output %w", def.ID, err)
	}
	for _, cr := range plan.consumes {
		if in[cr.access] == nil {
			return nil, fmt.Errorf("cgra: accel %d: access %d consumed but not wired", def.ID, cr.access)
		}
	}
	f := &Fabric{
		def: def, prog: def.Program, plan: plan, trips: trips,
		inputs: in, outputs: out, random: random, div: div, meter: meter,
	}
	// Without memory stalls at most ceil(Depth/II) iterations are in flight,
	// plus one whose delivery is still draining: size the ring (and every
	// slot's operand storage, in one array) for that so it seldom grows.
	m := plan.Mapping
	slots := (m.Depth+m.II-1)/m.II + 1
	f.inflight = make([]flight, slots)
	if plan.nprod > 0 {
		outs := make([]outVal, slots*plan.nprod)
		for i := range f.inflight {
			lo := i * plan.nprod
			f.inflight[i].outs = outs[lo : lo : lo+plan.nprod]
		}
	}
	if trips < 0 {
		if t := def.Trip.InputAccess; t >= 0 && t < n {
			f.tripIn = f.inputs[t]
		}
	}
	accessunit.SubscribePorts(&f.latch, in, out)
	return f, nil
}

// Mapping returns the modulo schedule chosen for this fabric.
func (f *Fabric) Mapping() Mapping { return f.plan.Mapping }

// BusyBaseCycles returns the fabric's pipelined-initiation time in engine
// base cycles (one initiation per iteration at the fabric clock) — a
// profiling accessor, no hot-path counters.
func (f *Fabric) BusyBaseCycles() int64 { return f.Iters * f.div }

// TileOps returns the mapped operation counts per functional-unit class
// (integer, complex, float ALUs and memory ports). The mapper is analytic —
// modulo scheduling without physical placement — so per-tile attribution is
// per PE class: each mapped op occupies one PE of its class for one fabric
// cycle per iteration.
func (f *Fabric) TileOps() (intOps, cplxOps, fpOps, memOps int64) {
	for oi := range f.prog {
		op := &f.prog[oi]
		switch op.Code {
		case microcode.Consume, microcode.Produce, microcode.LoadObj, microcode.StoreObj:
			memOps++
		default:
			switch op.Class() {
			case ir.ClassInt:
				intOps++
			case ir.ClassComplex:
				cplxOps++
			case ir.ClassFloat:
				fpOps++
			}
		}
	}
	return intOps, cplxOps, fpOps, memOps
}

// SetReg initializes a register (cp_set_rf).
func (f *Fabric) SetReg(r int, v float64) { f.regs[r] = v }

// Reg reads a register (cp_load_rf). Meaningful once Done.
func (f *Fabric) Reg(r int) float64 { return f.regs[r] }

// Done reports orchestrator completion.
func (f *Fabric) Done() bool { return f.done }

func (f *Fabric) finish() {
	for _, p := range f.outputs {
		if p == nil {
			continue
		}
		if !p.Buf.Closed() {
			p.Buf.Close()
		}
	}
	f.done = true
	if f.Trace.Enabled() {
		f.Trace.Instant("done", f.lastNow, trace.KV{K: "accel", V: int64(f.def.ID)},
			trace.KV{K: "iters", V: f.Iters}, trace.KV{K: "ops", V: f.Ops})
	}
}

// Step advances one fabric clock edge.
func (f *Fabric) Step(now int64) bool {
	if f.done {
		return false
	}
	f.lastNow = now
	progress := false
	// Deliver the oldest completed iteration's outputs, in order.
	for f.nfl > 0 && f.head().ready <= now {
		head := f.head()
		for head.next < len(head.outs) {
			out := head.outs[head.next]
			p := f.outputs[out.access]
			if !p.Buf.CanPush() {
				break
			}
			p.Buf.Push(out.v)
			head.next++
			progress = true
		}
		if head.next < len(head.outs) {
			break // back-pressure: hold delivery order
		}
		f.popFlight()
		progress = true
	}
	if f.nfl > 0 && f.head().ready > now {
		progress = true // pipeline timer running
	}
	// Completion check.
	if f.trips >= 0 && f.iter >= f.trips {
		if f.nfl == 0 {
			f.finish()
			return true
		}
		return progress
	}
	if f.trips < 0 {
		p := f.tripIn
		if p == nil {
			panic(fmt.Sprintf("cgra: accel %d: while-input access not wired", f.def.ID))
		}
		if p.Buf.Drained(p.Reader) && f.nfl == 0 {
			f.finish()
			return true
		}
	}
	// Initiate a new iteration when the schedule and operands allow.
	if now < f.nextStart {
		return true
	}
	for _, cr := range f.plan.consumes {
		p := f.inputs[cr.access]
		if p.Buf.Level(p.Reader) < cr.n {
			if p.Buf.Drained(p.Reader) && f.trips < 0 {
				return progress // will terminate on the drained check above
			}
			return progress // waiting on operands
		}
	}
	f.startIteration(now)
	return true
}

// Latch implements engine.Hinter; every wired port's buffer wakes it.
func (f *Fabric) Latch() *engine.Latch { return &f.latch }

// NextEvent implements engine.Hinter: the fabric's next effect is the
// earlier of the head in-flight iteration's completion and the next
// initiation slot — immediate when a delivery, a completion check, or an
// operand-ready initiation can happen now, Never when it is blocked on
// operand arrival or on output back-pressure with nothing in the
// pipeline about to mature.
func (f *Fabric) NextEvent(now int64) int64 {
	if f.done {
		return 0
	}
	lb := engine.Never
	if f.nfl > 0 {
		head := f.head()
		if head.ready > now {
			lb = head.ready // pipeline timer: delivery matures then
		} else if head.next == len(head.outs) || f.outputs[head.outs[head.next].access].Buf.CanPush() {
			return 0 // can deliver (or pop the completed flight) now
		}
		// else: delivery blocked on the consumer; initiation may still go.
	} else {
		if f.trips >= 0 && f.iter >= f.trips {
			return 0 // counted trips done, pipeline empty: will finish
		}
		if f.trips < 0 {
			if p := f.tripIn; p != nil && p.Buf.Drained(p.Reader) {
				return 0 // watched input drained, pipeline empty: will finish
			}
		}
	}
	if f.trips >= 0 && f.iter >= f.trips {
		return lb // no more initiations: only delivery events remain
	}
	if now < f.nextStart {
		if f.nextStart < lb {
			lb = f.nextStart // II schedule: next initiation slot
		}
		return lb
	}
	for _, cr := range f.plan.consumes {
		p := f.inputs[cr.access]
		if p.Buf.Level(p.Reader) < cr.n {
			return lb // waiting on operands (or drained: caught above next edge)
		}
	}
	return 0 // can initiate now
}

// startIteration functionally executes one iteration and schedules its
// completion Depth fabric cycles (plus random-access latency) later.
func (f *Fabric) startIteration(now int64) {
	// The in-order completion clamp reads the previous tail before the new
	// slot is pushed.
	prevReady := int64(-1)
	if f.nfl > 0 {
		prevReady = f.tail().ready
	}
	fl := f.pushFlight()
	if fl.outs == nil && f.plan.nprod > 0 {
		fl.outs = make([]outVal, 0, f.plan.nprod)
	}
	outs := fl.outs
	extraLat := int64(0)
	for oi := range f.prog {
		op := &f.prog[oi]
		if op.Pred >= 0 && f.regs[op.Pred] == 0 {
			continue // predicated off (channel ops are never predicated)
		}
		f.countOp(op)
		switch op.Code {
		case microcode.Nop:
		case microcode.Consume:
			p := f.inputs[op.Access]
			f.regs[op.Dst] = p.Buf.Pop(p.Reader)
		case microcode.Produce:
			outs = append(outs, outVal{access: op.Access, v: f.regs[op.A]})
		case microcode.LoadObj:
			v, lat, err := f.random.Load(op.Obj, int64(f.regs[op.A]))
			if err != nil {
				panic(fmt.Sprintf("cgra: accel %d: %v", f.def.ID, err))
			}
			f.regs[op.Dst] = v
			extraLat += int64(lat)
		case microcode.StoreObj:
			lat, err := f.random.Store(op.Obj, int64(f.regs[op.A]), f.regs[op.B])
			if err != nil {
				panic(fmt.Sprintf("cgra: accel %d: %v", f.def.ID, err))
			}
			if lat > 8 {
				lat = 8 // posted write occupancy
			}
			extraLat += int64(lat)
		case microcode.ALU:
			f.regs[op.Dst] = f.apply(op.Bin, f.regs[op.A], f.regs[op.B])
		case microcode.ALUI:
			f.regs[op.Dst] = f.apply(op.Bin, f.regs[op.A], op.Imm)
		case microcode.Un:
			f.regs[op.Dst] = ir.ApplyUn(op.UnOp, f.regs[op.A])
		case microcode.SelOp:
			if f.regs[op.C] != 0 {
				f.regs[op.Dst] = f.regs[op.A]
			} else {
				f.regs[op.Dst] = f.regs[op.B]
			}
		case microcode.MovI:
			f.regs[op.Dst] = op.Imm
		case microcode.Mov:
			f.regs[op.Dst] = f.regs[op.A]
		case microcode.Iter:
			f.regs[op.Dst] = float64(f.iter)
		default:
			panic(fmt.Sprintf("cgra: accel %d: bad opcode %v", f.def.ID, op.Code))
		}
	}
	ready := now + int64(f.plan.Mapping.Depth)*f.div + extraLat
	if ready < prevReady {
		ready = prevReady // in-order completion
	}
	if extraLat > 0 && f.Trace.Enabled() {
		f.Trace.Span("mem-stall", now, extraLat, trace.KV{K: "accel", V: int64(f.def.ID)})
	}
	f.IterHist.Observe(float64(ready - now))
	fl.ready, fl.outs = ready, outs
	if f.plan.Mapping.MemSerial {
		f.nextStart = ready // pointer chase: no iteration overlap
	} else {
		f.nextStart = now + int64(f.plan.Mapping.II)*f.div
	}
	f.iter++
	f.Iters++
}

func (f *Fabric) countOp(op *microcode.Op) {
	f.Ops++
	if f.meter != nil {
		t := &f.meter.Table // by pointer: the table is ~17 words, copied per op otherwise
		e := t.CGRAOpPJ
		switch op.Class() {
		case ir.ClassInt:
			e += t.IntOpPJ
		case ir.ClassComplex:
			e += t.ComplexOpPJ
		case ir.ClassFloat:
			e += t.FloatOpPJ
		}
		f.meter.Add(energy.CatAccel, e)
	}
}

func (f *Fabric) apply(op ir.BinOp, a, b float64) float64 {
	v, err := ir.ApplyBin(op, a, b)
	if err != nil {
		panic(fmt.Sprintf("cgra: accel %d: %v", f.def.ID, err))
	}
	return v
}
