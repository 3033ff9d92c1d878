package ir

import (
	"fmt"
)

// Hooks receive dynamic-execution events from the interpreter and the
// bytecode VM, in the same order from both. Any field may be nil. The
// simulator's host timing model (sim/host.go) runs every kernel on the VM
// with all of them installed; this package's tests hold the two executors
// to one event stream.
type Hooks struct {
	// OnOp fires once per arithmetic operation (Bin/Un/Sel evaluation).
	OnOp func(class OpClass)
	// OnLoad fires before a load of obj[idx], once idx is bounds-checked.
	// obj indexes the kernel's Objects; t is the index's taint.
	OnLoad func(obj, idx int, t Taint)
	// OnStore fires before a store to obj[idx], once the value is evaluated.
	OnStore func(obj, idx int)
	// OnBranch fires once per If, after its condition is evaluated.
	OnBranch func()
	// OnLoopIter fires at the start of every iteration of every loop.
	OnLoopIter func(f *For)
	// OnParallelEnter fires when a Parallel loop starts, after its bounds
	// are evaluated, with the number of iterations it will run;
	// OnParallelExit fires once it has run them.
	OnParallelEnter func(f *For, trips int64)
	OnParallelExit  func(f *For)
	// OnLaunch fires where a host program (NewHostProgram) reaches an
	// offloaded loop, in place of running it.
	OnLaunch func(f *For, l Launch)
}

// Taint tracks how a value depends on memory: clean, derived from a load
// in this loop iteration, or derived from a load in an earlier one
// (loop-carried: a pointer-chase chain an OoO core cannot overlap). A load
// is fresh; an operation takes the larger of its inputs' taints, a Sel
// that of its chosen arm and its condition; parameters, constants and
// induction variables are clean. Every iteration start turns each fresh
// local carried.
type Taint uint8

const (
	TaintClean Taint = iota
	TaintFresh
	TaintCarried
)

// tripCount is the number of iterations for lo..hi step runs.
func tripCount(lo, hi, step float64) (n int64) {
	for v := lo; v < hi; v += step {
		n++
	}
	return n
}

// LoopCounts aggregates dynamic activity attributed to one loop (activity of
// nested loops is attributed to the innermost enclosing loop only).
type LoopCounts struct {
	Ops    int64
	Loads  int64
	Stores int64
	Trips  int64
}

// Counts aggregates dynamic activity for a whole kernel run.
type Counts struct {
	Ops        int64 // arithmetic operations
	IntOps     int64
	ComplexOps int64
	FloatOps   int64
	Loads      int64
	Stores     int64
	LoopIters  int64 // loop iterations across all loops (control overhead)
	ByLoop     map[*For]*LoopCounts
}

// MemOps returns total loads+stores.
func (c *Counts) MemOps() int64 { return c.Loads + c.Stores }

// Instructions approximates the dynamic instruction count: arithmetic ops,
// memory ops, plus per-iteration loop control (compare+increment+branch ≈ 2).
func (c *Counts) Instructions() int64 {
	return c.Ops + c.Loads + c.Stores + 2*c.LoopIters
}

// runtimeError carries interpreter failures through panic/recover so the
// tree-walk stays uncluttered. It never escapes this package.
type runtimeError struct{ err error }

// binding is one name/value pair in a small linear-scan environment. The
// interpreter sits on the simulator's validation path for every run;
// kernels bind a handful of parameters, induction variables and locals,
// so scanning a short slice (newest first, which also gives shadowing)
// beats the string hash a map pays per lookup.
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

// bind checks that params define every name in names and that mem holds
// every object at its declared length, and returns the objects' buffers.
func bind(kernel string, names []string, objs []ObjDecl, params map[string]float64, mem map[string][]float64) ([][]float64, error) {
	for _, p := range names {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing parameter %q", kernel, p)
		}
	}
	bufs := make([][]float64, len(objs))
	for i, o := range objs {
		buf, ok := mem[o.Name]
		if !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing memory object %q", kernel, o.Name)
		}
		if len(buf) != o.Len {
			return nil, fmt.Errorf("ir: kernel %q: object %q has %d elements, declared %d",
				kernel, o.Name, len(buf), o.Len)
		}
		bufs[i] = buf
	}
	return bufs, nil
}

// catch, deferred, turns a runtimeError panic into *err.
func catch(err *error) {
	if r := recover(); r != nil {
		re, ok := r.(runtimeError)
		if !ok {
			panic(r)
		}
		*err = re.err
	}
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
