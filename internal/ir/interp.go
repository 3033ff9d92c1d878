package ir

import (
	"fmt"
)

// Hooks receive dynamic-execution events from the interpreter and the
// bytecode VM, in the same order from both. Any field may be nil. Only
// this package's tests pass hooks: Table VI's coverage reads Counts, and
// the host timing model (sim/host.go) walks the kernel itself.
type Hooks struct {
	// OnOp fires once per arithmetic operation (Bin/Un/Sel evaluation).
	OnOp func(class OpClass)
	// OnLoad fires after a successful load of obj[idx].
	OnLoad func(obj string, idx int)
	// OnStore fires after a successful store to obj[idx].
	OnStore func(obj string, idx int)
	// OnLoopIter fires at the start of every iteration of every loop.
	OnLoopIter func(f *For)
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
}

func lookupBinding(env []binding, name string) (float64, bool) {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			return env[i].v, true
		}
	}
	return 0, false
}

func setBinding(env []binding, name string, v float64) []binding {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			env[i].v = v
			return env
		}
	}
	return append(env, binding{name: name, v: v})
}

// objSlot resolves one declared object to its backing storage.
type objSlot struct {
	name string
	len  int
	buf  []float64
}

type interp struct {
	k      *Kernel
	params []binding
	objs   []objSlot
	hooks  Hooks
	ivs    []binding
	locals []binding
	counts *Counts
	// cur is the LoopCounts of the innermost enclosing loop (nil at top
	// level): events attribute to it without a per-event map lookup.
	cur *LoopCounts
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
	for _, p := range k.Params {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing parameter %q", k.Name, p)
		}
	}
	objs := make([]objSlot, 0, len(k.Objects))
	for _, o := range k.Objects {
		buf, ok := mem[o.Name]
		if !ok {
			return nil, fmt.Errorf("ir: kernel %q: missing memory object %q", k.Name, o.Name)
		}
		if len(buf) != o.Len {
			return nil, fmt.Errorf("ir: kernel %q: object %q has %d elements, declared %d",
				k.Name, o.Name, len(buf), o.Len)
		}
		objs = append(objs, objSlot{name: o.Name, len: o.Len, buf: buf})
	}
	pb := make([]binding, 0, len(k.Params))
	for _, p := range k.Params {
		pb = append(pb, binding{name: p, v: params[p]})
	}
	in := &interp{
		k:      k,
		params: pb,
		objs:   objs,
		counts: &Counts{ByLoop: map[*For]*LoopCounts{}},
	}
	if hooks != nil {
		in.hooks = *hooks
	}
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runtimeError)
			if !ok {
				panic(r)
			}
			counts, err = nil, re.err
		}
	}()
	in.stmts(k.Body)
	return in.counts, nil
}

// slot resolves a declared object's backing storage by name.
func (in *interp) slot(obj string) *objSlot {
	for i := range in.objs {
		if in.objs[i].name == obj {
			return &in.objs[i]
		}
	}
	in.fail("access to undeclared object %q", obj)
	return nil
}

func (in *interp) stmts(body []Stmt) {
	for _, s := range body {
		in.stmt(s)
	}
}

func (in *interp) stmt(s Stmt) {
	switch x := s.(type) {
	case Let:
		in.locals = setBinding(in.locals, x.Name, in.eval(x.E))
	case Store:
		s := in.slot(x.Obj)
		idx := in.indexIn(s, x.Idx)
		v := in.eval(x.Val)
		s.buf[idx] = v
		in.counts.Stores++
		if lc := in.cur; lc != nil {
			lc.Stores++
		}
		if in.hooks.OnStore != nil {
			in.hooks.OnStore(x.Obj, idx)
		}
	case If:
		if in.eval(x.Cond) != 0 {
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
		if in.hooks.OnLoopIter != nil {
			in.hooks.OnLoopIter(f)
		}
		in.stmts(f.Body)
	}
	in.ivs = in.ivs[:pos]
	in.cur = savedCur
}

// indexIn evaluates and bounds-checks an index into a resolved object.
func (in *interp) indexIn(s *objSlot, e Expr) int {
	v := in.eval(e)
	idx := int(v)
	if idx < 0 || idx >= s.len {
		in.fail("index %d out of range for object %q (len %d)", idx, s.name, s.len)
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

func (in *interp) eval(e Expr) float64 {
	switch x := e.(type) {
	case Const:
		return x.V
	case Param:
		v, ok := lookupBinding(in.params, x.Name)
		if !ok {
			in.fail("read of unknown parameter %q", x.Name)
		}
		return v
	case IV:
		v, ok := lookupBinding(in.ivs, x.Name)
		if !ok {
			in.fail("read of induction variable %q outside its loop", x.Name)
		}
		return v
	case Local:
		v, ok := lookupBinding(in.locals, x.Name)
		if !ok {
			in.fail("read of undefined local %q", x.Name)
		}
		return v
	case Load:
		s := in.slot(x.Obj)
		idx := in.indexIn(s, x.Idx)
		in.counts.Loads++
		if lc := in.cur; lc != nil {
			lc.Loads++
		}
		if in.hooks.OnLoad != nil {
			in.hooks.OnLoad(x.Obj, idx)
		}
		return s.buf[idx]
	case Bin:
		a := in.eval(x.A)
		b := in.eval(x.B)
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
		t := in.eval(x.T)
		f := in.eval(x.F)
		in.countOp(ClassInt)
		if c != 0 {
			return t
		}
		return f
	default:
		in.fail("unknown expression %T", e)
		return 0
	}
}
