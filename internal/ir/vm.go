package ir

import "fmt"

// vm executes a compiled Program. One vm serves one Run call; the Program
// itself is shared and read-only.
type vm struct {
	p        *Program
	frame    []float64
	assigned []bool // per frame index: has the local ever been assigned (params pre-set)
	bufs     [][]float64
	hits     []int64 // per block: times entered (a loop body's: the loop's iterations)
	hooks    Hooks
	taint    []Taint // per frame index, kept by the hooked loop only
}

func (v *vm) fail(format string, args ...any) {
	panic(runtimeError{fmt.Errorf("ir: kernel %q: "+format, append([]any{v.p.img.KernelName}, args...)...)})
}

func (v *vm) failIndex(obj int32, idx int) {
	o := &v.p.img.Objects[obj]
	v.fail("index %d out of range for object %q (len %d)", idx, o.Name, o.Len)
}

// Run executes the compiled program against mem (modified in place) and
// returns dynamic counts. Semantics — evaluation order, Counts, hook
// event sequences, error messages, stored data — are bit-identical to
// the tree-walk reference interpreter on the same kernel (Run, defined in
// this package's tests); the differential tests and FuzzVMvsInterp hold
// the VM to it. A host program runs only with OnLaunch set.
func (p *Program) Run(params map[string]float64, mem map[string][]float64, hooks *Hooks) (counts *Counts, err error) {
	if len(p.sites) > 0 && (hooks == nil || hooks.OnLaunch == nil) {
		return nil, fmt.Errorf("ir: kernel %q: host program run without an OnLaunch hook", p.img.KernelName)
	}
	bufs, err := bind(p.img.KernelName, p.img.Params, p.img.Objects, params, mem)
	if err != nil {
		return nil, err
	}
	n := p.img.NSlots + len(p.img.Consts) + p.img.NRegs
	v := &vm{
		p:        p,
		frame:    make([]float64, n),
		assigned: make([]bool, n),
		bufs:     bufs,
		hits:     make([]int64, len(p.img.Blocks)),
	}
	for i, name := range p.img.Params {
		v.frame[i] = params[name]
		v.assigned[i] = true
	}
	copy(v.frame[p.img.NSlots:], p.img.Consts)
	v.hits[len(p.loops)] = 1 // the top level runs once
	defer catch(&err)
	if hooks == nil {
		v.exec()
	} else {
		// The hooked variant pays a nil check per event; the
		// hooks-off loop above pays none.
		v.hooks = *hooks
		v.taint = make([]Taint, n)
		v.execHooked(0, len(p.img.Code))
	}
	return v.counts(), nil
}

// counts multiplies every block's tally by its entry count. ByLoop gets
// an entry only for loops that iterated, as in the reference interpreter;
// loops that share a *For node sum into one entry.
func (v *vm) counts() *Counts {
	c := &Counts{ByLoop: map[*For]*LoopCounts{}}
	lcs := make([]*LoopCounts, len(v.p.loops))
	for li, f := range v.p.loops {
		n := v.hits[li]
		if n == 0 {
			continue
		}
		c.LoopIters += n
		lc := c.ByLoop[f]
		if lc == nil {
			lc = &LoopCounts{}
			c.ByLoop[f] = lc
		}
		lc.Trips += n
		lcs[li] = lc
	}
	for i := range v.p.img.Blocks {
		b := &v.p.img.Blocks[i]
		n := v.hits[i]
		if n == 0 {
			continue
		}
		ops := n * (b.IntOps + b.ComplexOps + b.FloatOps)
		c.Ops += ops
		c.IntOps += n * b.IntOps
		c.ComplexOps += n * b.ComplexOps
		c.FloatOps += n * b.FloatOps
		c.Loads += n * b.Loads
		c.Stores += n * b.Stores
		if b.Loop >= 0 {
			lc := lcs[b.Loop]
			lc.Ops += ops
			lc.Loads += n * b.Loads
			lc.Stores += n * b.Stores
		}
	}
	return c
}

// exec is the hooks-off dispatch loop.
func (v *vm) exec() {
	code := v.p.img.Code
	fr := v.frame
	hits := v.hits
	bufs := v.bufs
	assigned := v.assigned
	for pc := 0; pc < len(code); pc++ {
		op := &code[pc]
		switch op.Code {
		case OpSlotChecked:
			if !assigned[op.A] {
				v.fail("read of undefined local %q", v.p.img.SlotNames[op.A])
			}
			fr[op.Dst] = fr[op.A]
		case OpMove:
			fr[op.Dst] = fr[op.A]
			assigned[op.Dst] = true
		case OpLoad:
			buf := bufs[op.Aux]
			idx := int(fr[op.A])
			if uint(idx) >= uint(len(buf)) {
				v.failIndex(op.Aux, idx)
			}
			fr[op.Dst] = buf[idx]
		case OpStoreIdx:
			if idx := int(fr[op.A]); uint(idx) >= uint(len(bufs[op.Aux])) {
				v.failIndex(op.Aux, idx)
			}
		case OpStore:
			buf := bufs[op.Aux]
			idx := int(fr[op.A])
			if uint(idx) >= uint(len(buf)) {
				v.failIndex(op.Aux, idx)
			}
			buf[idx] = fr[op.B]
		case OpAdd:
			fr[op.Dst] = fr[op.A] + fr[op.B]
		case OpSub:
			fr[op.Dst] = fr[op.A] - fr[op.B]
		case OpMul:
			fr[op.Dst] = fr[op.A] * fr[op.B]
		case OpBin:
			out, err := ApplyBin(BinOp(op.Aux), fr[op.A], fr[op.B])
			if err != nil {
				v.fail("%v", err)
			}
			fr[op.Dst] = out
		case OpUn:
			fr[op.Dst] = ApplyUn(UnOp(op.Aux), fr[op.A])
		case OpSel:
			if fr[op.A] != 0 {
				fr[op.Dst] = fr[op.B]
			} else {
				fr[op.Dst] = fr[op.C]
			}
		case OpJump:
			pc = int(op.Dst) - 1
		case OpJumpIfZero:
			if fr[op.A] == 0 {
				hits[op.C]++
				pc = int(op.Dst) - 1
			} else {
				hits[op.B]++
			}
		case OpLoopEnter:
			if step := fr[op.C]; step <= 0 {
				v.fail("loop %s has non-positive step %g", v.p.loops[op.Aux].IV, step)
			}
			fr[op.Dst] = fr[op.A]
		case OpLoopTest:
			if fr[op.A] < fr[op.B] {
				hits[op.Aux]++
			} else {
				pc = int(op.Dst) - 1
			}
		case OpLoopNext:
			fr[op.A] += fr[op.C]
			if fr[op.A] < fr[op.B] {
				hits[op.Aux]++
				pc = int(op.Dst) - 1
			}
		default:
			panic(fmt.Sprintf("ir: vm: invalid opcode %d at pc %d", op.Code, pc))
		}
	}
}

// execHooked mirrors exec over code[pc:end] with hook dispatch at the
// counted events and the taint shadow. Kept as a separate loop so the
// hooks-off path carries no per-op nil checks.
func (v *vm) execHooked(pc, end int) {
	code := v.p.img.Code
	fr := v.frame
	ts := v.taint
	hits := v.hits
	for ; pc < end; pc++ {
		op := &code[pc]
		switch op.Code {
		case OpSlotChecked:
			if !v.assigned[op.A] {
				v.fail("read of undefined local %q", v.p.img.SlotNames[op.A])
			}
			fr[op.Dst], ts[op.Dst] = fr[op.A], ts[op.A]
		case OpMove:
			fr[op.Dst], ts[op.Dst] = fr[op.A], ts[op.A]
			v.assigned[op.Dst] = true
		case OpLoad:
			buf := v.bufs[op.Aux]
			idx := int(fr[op.A])
			if uint(idx) >= uint(len(buf)) {
				v.failIndex(op.Aux, idx)
			}
			if v.hooks.OnLoad != nil {
				v.hooks.OnLoad(int(op.Aux), idx, ts[op.A])
			}
			fr[op.Dst], ts[op.Dst] = buf[idx], TaintFresh
		case OpStoreIdx:
			if idx := int(fr[op.A]); uint(idx) >= uint(len(v.bufs[op.Aux])) {
				v.failIndex(op.Aux, idx)
			}
		case OpStore:
			buf := v.bufs[op.Aux]
			idx := int(fr[op.A])
			if uint(idx) >= uint(len(buf)) {
				v.failIndex(op.Aux, idx)
			}
			if v.hooks.OnStore != nil {
				v.hooks.OnStore(int(op.Aux), idx)
			}
			buf[idx] = fr[op.B]
		case OpBin, OpAdd, OpSub, OpMul:
			a, b := fr[op.A], fr[op.B]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(OpClass(op.C))
			}
			out, err := ApplyBin(BinOp(op.Aux), a, b)
			if err != nil {
				v.fail("%v", err)
			}
			fr[op.Dst], ts[op.Dst] = out, max(ts[op.A], ts[op.B])
		case OpUn:
			a := fr[op.A]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(OpClass(op.C))
			}
			fr[op.Dst], ts[op.Dst] = ApplyUn(UnOp(op.Aux), a), ts[op.A]
		case OpSel:
			c, t, f := fr[op.A], fr[op.B], fr[op.C]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(ClassInt)
			}
			if c != 0 {
				fr[op.Dst], ts[op.Dst] = t, max(ts[op.B], ts[op.A])
			} else {
				fr[op.Dst], ts[op.Dst] = f, max(ts[op.C], ts[op.A])
			}
		case OpJump:
			pc = int(op.Dst) - 1
		case OpJumpIfZero:
			if v.hooks.OnBranch != nil {
				v.hooks.OnBranch()
			}
			if fr[op.A] == 0 {
				hits[op.C]++
				pc = int(op.Dst) - 1
			} else {
				hits[op.B]++
			}
		case OpLoopEnter:
			if step := fr[op.C]; step <= 0 {
				v.fail("loop %s has non-positive step %g", v.p.loops[op.Aux].IV, step)
			}
			fr[op.Dst], ts[op.Dst] = fr[op.A], TaintClean
			if f := v.p.loops[op.Aux]; f.Parallel && v.hooks.OnParallelEnter != nil {
				v.hooks.OnParallelEnter(f, tripCount(fr[op.A], fr[op.B], fr[op.C]))
			}
		case OpLoopTest:
			if fr[op.A] < fr[op.B] {
				v.iterate(op.Aux)
			} else {
				v.exitLoop(op.Aux)
				pc = int(op.Dst) - 1
			}
		case OpLoopNext:
			fr[op.A] += fr[op.C]
			if fr[op.A] < fr[op.B] {
				v.iterate(op.Aux)
				pc = int(op.Dst) - 1
			} else {
				v.exitLoop(op.Aux)
			}
		case OpLaunch:
			s := &v.p.sites[op.Aux]
			v.hooks.OnLaunch(s.loop, Launch{v, s})
		default:
			panic(fmt.Sprintf("ir: vm: invalid opcode %d at pc %d", op.Code, pc))
		}
	}
}

// iterate starts an iteration of loop li in the hooked loop.
func (v *vm) iterate(li int32) {
	v.hits[li]++
	for i, t := range v.taint[:v.p.img.NSlots] { // fresh locals become carried
		if t == TaintFresh {
			v.taint[i] = TaintCarried
		}
	}
	if v.hooks.OnLoopIter != nil {
		v.hooks.OnLoopIter(v.p.loops[li])
	}
}

// exitLoop ends loop li in the hooked loop.
func (v *vm) exitLoop(li int32) {
	if f := v.p.loops[li]; f.Parallel && v.hooks.OnParallelExit != nil {
		v.hooks.OnParallelExit(f)
	}
}

// Launch is one launch of an offloaded loop, handed to Hooks.OnLaunch: it
// evaluates the loop's launch-time expressions and assigns its outputs.
type Launch struct {
	v *vm
	s *site
}

// Eval evaluates launch-time expression i (Offload.Exprs) where the loop
// stands in the program, firing hooks for its operations and loads.
func (l Launch) Eval(i int) float64 {
	f := l.s.exprs[i]
	l.v.execHooked(int(f.start), int(f.end))
	return l.v.frame[f.result]
}

// SetOut assigns output local i (Offload.Outs) the value x, fresh from
// memory as a load's is.
func (l Launch) SetOut(i int, x float64) {
	slot := l.s.outs[i]
	l.v.frame[slot], l.v.taint[slot], l.v.assigned[slot] = x, TaintFresh, true
}
