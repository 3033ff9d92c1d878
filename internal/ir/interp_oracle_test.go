package ir

import (
	"fmt"
)

// The tree-walk interpreter is the reference semantics the bytecode VM is
// held to: the VM tests, TestVMDifferentialAllWorkloads (through ir.Run in
// package ir_test) and FuzzVMvsInterp run a kernel on both and compare
// memory, counts, hook events and error texts. It lives in a test file so
// that no production binary links a second kernel executor.

// binding is one name/value pair in a small linear-scan environment
// (newest first, which also gives shadowing).
type binding struct {
	name string
	v    float64
	t    Taint // locals only
}

func lookupBinding(env []binding, name string) *binding {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			return &env[i]
		}
	}
	return nil
}

func setBinding(env []binding, b binding) []binding {
	if old := lookupBinding(env, b.name); old != nil {
		*old = b
		return env
	}
	return append(env, b)
}

type interp struct {
	k      *Kernel
	params []binding
	bufs   [][]float64 // per declared object
	hooks  Hooks
	ivs    []binding
	locals []binding
	counts *Counts
	// cur is the LoopCounts of the innermost enclosing loop (nil at top
	// level): events attribute to it without a per-event map lookup.
	cur *LoopCounts
	t   Taint // taint of the value eval last returned
}

func (in *interp) fail(format string, args ...any) {
	panic(runtimeError{fmt.Errorf("ir: kernel %q: "+format, append([]any{in.k.Name}, args...)...)})
}

// Run interprets the kernel against mem (modified in place) and returns
// dynamic counts. mem must contain a slice of the declared length for every
// declared object; params must define every declared parameter.
func Run(k *Kernel, params map[string]float64, mem map[string][]float64, hooks *Hooks) (counts *Counts, err error) {
	if err := Validate(k); err != nil {
		return nil, err
	}
	bufs, err := bind(k.Name, k.Params, k.Objects, params, mem)
	if err != nil {
		return nil, err
	}
	in := &interp{k: k, bufs: bufs, counts: &Counts{ByLoop: map[*For]*LoopCounts{}}}
	for _, p := range k.Params {
		in.params = append(in.params, binding{name: p, v: params[p]})
	}
	if hooks != nil {
		in.hooks = *hooks
	}
	defer catch(&err)
	in.stmts(k.Body)
	return in.counts, nil
}

// evalScalarInterp is EvalScalar as it was when the interpreter backed
// it: a kernel-less interp with params and ivs bound. FuzzEvalScalar holds
// the direct evaluator to it.
func evalScalarInterp(e Expr, params, ivs map[string]float64) (v float64, err error) {
	in := &interp{k: &Kernel{Name: "EvalScalar"}, counts: &Counts{}}
	for name, x := range params {
		in.params = append(in.params, binding{name: name, v: x})
	}
	for name, x := range ivs {
		in.ivs = append(in.ivs, binding{name: name, v: x})
	}
	defer catch(&err)
	return in.eval(e), nil
}

// slot resolves a declared object's index by name.
func (in *interp) slot(obj string) int {
	for i := range in.k.Objects {
		if in.k.Objects[i].Name == obj {
			return i
		}
	}
	in.fail("access to undeclared object %q", obj)
	return 0
}

func (in *interp) stmts(body []Stmt) {
	for _, s := range body {
		in.stmt(s)
	}
}

func (in *interp) stmt(s Stmt) {
	switch x := s.(type) {
	case Let:
		v := in.eval(x.E)
		in.locals = setBinding(in.locals, binding{name: x.Name, v: v, t: in.t})
	case Store:
		i := in.slot(x.Obj)
		idx := in.indexIn(i, x.Idx)
		v := in.eval(x.Val)
		in.counts.Stores++
		if lc := in.cur; lc != nil {
			lc.Stores++
		}
		if in.hooks.OnStore != nil {
			in.hooks.OnStore(i, idx)
		}
		in.bufs[i][idx] = v
	case If:
		c := in.eval(x.Cond)
		if in.hooks.OnBranch != nil {
			in.hooks.OnBranch()
		}
		if c != 0 {
			in.stmts(x.Then)
		} else {
			in.stmts(x.Else)
		}
	case *For:
		in.forLoop(x)
	default:
		in.fail("unknown statement %T", s)
	}
}

func (in *interp) forLoop(f *For) {
	lo := in.eval(f.Lo)
	hi := in.eval(f.Hi)
	step := in.eval(f.Step)
	if step <= 0 {
		in.fail("loop %s has non-positive step %g", f.IV, step)
	}
	if f.Parallel && in.hooks.OnParallelEnter != nil {
		in.hooks.OnParallelEnter(f, tripCount(lo, hi, step))
	}
	// Push the induction variable; backward binding lookups see the
	// innermost shadow, and truncating on exit restores any outer one.
	pos := len(in.ivs)
	in.ivs = append(in.ivs, binding{name: f.IV})
	savedCur := in.cur
	var lc *LoopCounts // resolved lazily so 0-trip loops leave no entry
	for v := lo; v < hi; v += step {
		in.ivs[pos].v = v
		in.counts.LoopIters++
		if lc == nil {
			if lc = in.counts.ByLoop[f]; lc == nil {
				lc = &LoopCounts{}
				in.counts.ByLoop[f] = lc
			}
			in.cur = lc
		}
		lc.Trips++
		for i := range in.locals {
			if in.locals[i].t == TaintFresh {
				in.locals[i].t = TaintCarried
			}
		}
		if in.hooks.OnLoopIter != nil {
			in.hooks.OnLoopIter(f)
		}
		in.stmts(f.Body)
	}
	in.ivs = in.ivs[:pos]
	in.cur = savedCur
	if f.Parallel && in.hooks.OnParallelExit != nil {
		in.hooks.OnParallelExit(f)
	}
}

// indexIn evaluates and bounds-checks an index into object i.
func (in *interp) indexIn(i int, e Expr) int {
	idx := int(in.eval(e))
	if o := in.k.Objects[i]; idx < 0 || idx >= o.Len {
		in.fail("index %d out of range for object %q (len %d)", idx, o.Name, o.Len)
	}
	return idx
}

func (in *interp) countOp(class OpClass) {
	in.counts.Ops++
	switch class {
	case ClassInt:
		in.counts.IntOps++
	case ClassComplex:
		in.counts.ComplexOps++
	case ClassFloat:
		in.counts.FloatOps++
	}
	if lc := in.cur; lc != nil {
		lc.Ops++
	}
	if in.hooks.OnOp != nil {
		in.hooks.OnOp(class)
	}
}

// eval returns e's value and leaves its taint in in.t.
func (in *interp) eval(e Expr) float64 {
	in.t = TaintClean
	switch x := e.(type) {
	case Const:
		return x.V
	case Param:
		b := lookupBinding(in.params, x.Name)
		if b == nil {
			in.fail("read of unknown parameter %q", x.Name)
		}
		return b.v
	case IV:
		b := lookupBinding(in.ivs, x.Name)
		if b == nil {
			in.fail("read of induction variable %q outside its loop", x.Name)
		}
		return b.v
	case Local:
		b := lookupBinding(in.locals, x.Name)
		if b == nil {
			in.fail("read of undefined local %q", x.Name)
		}
		in.t = b.t
		return b.v
	case Load:
		i := in.slot(x.Obj)
		idx := in.indexIn(i, x.Idx)
		in.counts.Loads++
		if lc := in.cur; lc != nil {
			lc.Loads++
		}
		if in.hooks.OnLoad != nil {
			in.hooks.OnLoad(i, idx, in.t)
		}
		in.t = TaintFresh
		return in.bufs[i][idx]
	case Bin:
		a := in.eval(x.A)
		ta := in.t
		b := in.eval(x.B)
		in.t = max(in.t, ta)
		in.countOp(x.Op.Class())
		v, err := ApplyBin(x.Op, a, b)
		if err != nil {
			in.fail("%v", err)
		}
		return v
	case Un:
		a := in.eval(x.A)
		in.countOp(x.Op.Class())
		return ApplyUn(x.Op, a)
	case Sel:
		c := in.eval(x.Cond)
		tc := in.t
		t := in.eval(x.T)
		tt := in.t
		f := in.eval(x.F)
		in.countOp(ClassInt)
		if c != 0 {
			in.t = max(tt, tc)
			return t
		}
		in.t = max(in.t, tc)
		return f
	default:
		in.fail("unknown expression %T", e)
		return 0
	}
}
