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
}

func (v *vm) fail(format string, args ...any) {
	panic(runtimeError{fmt.Errorf("ir: kernel %q: "+format, append([]any{v.p.name}, args...)...)})
}

func (v *vm) failIndex(obj int32, idx int) {
	o := &v.p.objs[obj]
	v.fail("index %d out of range for object %q (len %d)", idx, o.Name, o.Len)
}

// Run executes the compiled program against mem (modified in place) and
// returns dynamic counts. Semantics — evaluation order, Counts, hook
// event sequences, error messages, stored data — are bit-identical to
// ir.Run on the same kernel; the differential tests in this package hold
// the two executors to that.
func (p *Program) Run(params map[string]float64, mem map[string][]float64, hooks *Hooks) (counts *Counts, err error) {
	for _, name := range p.params {
		if _, ok := params[name]; !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing parameter %q", p.name, name)
		}
	}
	bufs := make([][]float64, len(p.objs))
	for i, o := range p.objs {
		buf, ok := mem[o.Name]
		if !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing memory object %q", p.name, o.Name)
		}
		if len(buf) != o.Len {
			return nil, fmt.Errorf("ir: kernel %q: object %q has %d elements, declared %d",
				p.name, o.Name, len(buf), o.Len)
		}
		bufs[i] = buf
	}
	n := p.nSlots + len(p.consts) + p.nRegs
	v := &vm{
		p:        p,
		frame:    make([]float64, n),
		assigned: make([]bool, n),
		bufs:     bufs,
		hits:     make([]int64, len(p.blocks)),
	}
	for i, name := range p.params {
		v.frame[i] = params[name]
		v.assigned[i] = true
	}
	copy(v.frame[p.nSlots:], p.consts)
	v.hits[len(p.loops)] = 1 // the top level runs once
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runtimeError)
			if !ok {
				panic(r)
			}
			counts, err = nil, re.err
		}
	}()
	if hooks == nil {
		v.exec()
	} else {
		// The hooked variant pays the per-event nil checks the
		// interpreter pays; the hooks-off loop above pays none.
		v.hooks = *hooks
		v.execHooked()
	}
	return v.counts(), nil
}

// counts multiplies every block's tally by its entry count. ByLoop gets
// an entry only for loops that iterated, as in the interpreter; loops
// that share a *For node sum into one entry.
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
	for i := range v.p.blocks {
		b := &v.p.blocks[i]
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
	code := v.p.code
	fr := v.frame
	hits := v.hits
	bufs := v.bufs
	assigned := v.assigned
	for pc := 0; pc < len(code); pc++ {
		op := &code[pc]
		switch op.Code {
		case OpSlotChecked:
			if !assigned[op.A] {
				v.fail("read of undefined local %q", v.p.slotNames[op.A])
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

// execHooked mirrors exec with hook dispatch at the counted events. Kept
// as a separate loop so the hooks-off path carries no per-op nil checks.
func (v *vm) execHooked() {
	code := v.p.code
	fr := v.frame
	hits := v.hits
	for pc := 0; pc < len(code); pc++ {
		op := &code[pc]
		switch op.Code {
		case OpSlotChecked:
			if !v.assigned[op.A] {
				v.fail("read of undefined local %q", v.p.slotNames[op.A])
			}
			fr[op.Dst] = fr[op.A]
		case OpMove:
			fr[op.Dst] = fr[op.A]
			v.assigned[op.Dst] = true
		case OpLoad:
			buf := v.bufs[op.Aux]
			idx := int(fr[op.A])
			if uint(idx) >= uint(len(buf)) {
				v.failIndex(op.Aux, idx)
			}
			if v.hooks.OnLoad != nil {
				v.hooks.OnLoad(v.p.objs[op.Aux].Name, idx)
			}
			fr[op.Dst] = buf[idx]
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
			buf[idx] = fr[op.B]
			if v.hooks.OnStore != nil {
				v.hooks.OnStore(v.p.objs[op.Aux].Name, idx)
			}
		case OpBin, OpAdd, OpSub, OpMul:
			a, b := fr[op.A], fr[op.B]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(OpClass(op.C))
			}
			out, err := ApplyBin(BinOp(op.Aux), a, b)
			if err != nil {
				v.fail("%v", err)
			}
			fr[op.Dst] = out
		case OpUn:
			a := fr[op.A]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(OpClass(op.C))
			}
			fr[op.Dst] = ApplyUn(UnOp(op.Aux), a)
		case OpSel:
			c, t, f := fr[op.A], fr[op.B], fr[op.C]
			if v.hooks.OnOp != nil {
				v.hooks.OnOp(ClassInt)
			}
			if c != 0 {
				fr[op.Dst] = t
			} else {
				fr[op.Dst] = f
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
				if v.hooks.OnLoopIter != nil {
					v.hooks.OnLoopIter(v.p.loops[op.Aux])
				}
			} else {
				pc = int(op.Dst) - 1
			}
		case OpLoopNext:
			fr[op.A] += fr[op.C]
			if fr[op.A] < fr[op.B] {
				hits[op.Aux]++
				if v.hooks.OnLoopIter != nil {
					v.hooks.OnLoopIter(v.p.loops[op.Aux])
				}
				pc = int(op.Dst) - 1
			}
		default:
			panic(fmt.Sprintf("ir: vm: invalid opcode %d at pc %d", op.Code, pc))
		}
	}
}
