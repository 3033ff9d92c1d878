package ir

// Fuzz cross-check between the bytecode VM and the tree-walk
// interpreter. A deterministic generator builds random kernels that pass
// Validate — mirroring the validator's scoping rules for induction
// variables and locals — then both executors run the same inputs and
// must agree on counts, stored data, hook event sequences, and error
// strings. The generator deliberately produces runtime-error cases the
// validator cannot rule out: out-of-range indices, divide/mod by zero,
// non-positive steps, and reads of locals only defined inside 0-trip
// loop bodies.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// memBitsEqual compares stored data bit-for-bit: NaNs produced
// identically by both executors must compare equal, and the invariant is
// bit-identical results, not IEEE ==.
func memBitsEqual(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
				return false
			}
		}
	}
	return true
}

type kgen struct {
	r      *rand.Rand
	objs   []ObjDecl
	ivs    []string        // in-scope induction variables, innermost last
	locals map[string]bool // validator-style definedness
	depth  int             // loop nesting
	budget int             // remaining statement budget
	nextIV int
}

var fuzzParams = []string{"n", "a", "b"}

func genKernel(seed int64) (*Kernel, map[string]float64, map[string][]float64) {
	r := rand.New(rand.NewSource(seed))
	g := &kgen{
		r: r,
		objs: []ObjDecl{
			{Name: "o0", Len: 5 + r.Intn(4), ElemBytes: 8},
			{Name: "o1", Len: 8 + r.Intn(5), ElemBytes: 4},
		},
		locals: map[string]bool{},
		budget: 6 + r.Intn(8),
	}
	k := &Kernel{
		Name:    fmt.Sprintf("fuzz%d", seed),
		Params:  fuzzParams,
		Objects: g.objs,
		Body:    g.stmts(1 + r.Intn(4)),
	}
	vals := []float64{-2, -1, 0, 0.5, 1, 2, 3}
	params := map[string]float64{
		"n": float64(r.Intn(6)),
		"a": vals[r.Intn(len(vals))],
		"b": vals[r.Intn(len(vals))],
	}
	mem := map[string][]float64{}
	for _, o := range g.objs {
		buf := make([]float64, o.Len)
		for i := range buf {
			buf[i] = float64(r.Intn(7)) - 2
		}
		mem[o.Name] = buf
	}
	return k, params, mem
}

func (g *kgen) stmts(n int) []Stmt {
	var out []Stmt
	for i := 0; i < n && g.budget > 0; i++ {
		g.budget--
		out = append(out, g.stmt())
	}
	if len(out) == 0 {
		out = append(out, g.storeStmt())
	}
	return out
}

func (g *kgen) stmt() Stmt {
	switch c := g.r.Intn(10); {
	case c < 3:
		name := fmt.Sprintf("l%d", g.r.Intn(4))
		s := Set(name, g.expr(2))
		g.locals[name] = true
		return s
	case c < 6:
		return g.storeStmt()
	case c < 8:
		// If: arms checked against independent snapshots, only common
		// definitions persist — same rule as the validator.
		cond := g.expr(2)
		base := cloneSet(g.locals)
		then := g.stmts(1 + g.r.Intn(2))
		thenLocals := g.locals
		g.locals = cloneSet(base)
		els := g.stmts(1 + g.r.Intn(2))
		elseLocals := g.locals
		g.locals = base
		for name := range thenLocals {
			if elseLocals[name] {
				g.locals[name] = true
			}
		}
		return Cond(cond, then, els)
	default:
		if g.depth >= 3 {
			return g.storeStmt()
		}
		iv := fmt.Sprintf("iv%d", g.nextIV) // unique: never shadows
		g.nextIV++
		// Bounds come from outer IVs, params, loads and locals as well as
		// constants: the VM reads some of them in place on every
		// iteration, and must read exactly what ir.Run read once.
		lo := g.bound(C(float64(g.r.Intn(2))))
		hi := Expr(C(float64(g.r.Intn(6))))
		switch g.r.Intn(6) {
		case 0:
			hi = P("n")
		case 1, 2:
			hi = g.expr(1)
		}
		step := Expr(C(1))
		switch g.r.Intn(12) {
		case 0:
			step = C(2)
		case 1:
			step = C(0) // non-positive step: runtime error parity
		case 2:
			step = g.leaf()
		case 3, 4:
			step = g.expr(1)
		}
		// A local bounding the loop that the body reassigns: its value at
		// loop entry still bounds every iteration.
		var reassign Stmt
		if name := g.definedLocal(); name != "" && g.r.Intn(3) == 0 {
			hi = L(name)
			reassign = Set(name, SubE(L(name), C(1)))
			if g.r.Intn(2) == 0 {
				reassign = Set(name, g.expr(2))
			}
		}
		g.ivs = append(g.ivs, iv)
		g.depth++
		body := g.stmts(1 + g.r.Intn(3))
		if reassign != nil {
			body = append([]Stmt{reassign}, body...)
		}
		g.depth--
		g.ivs = g.ivs[:len(g.ivs)-1]
		// Loop-body definitions persist per the validator, even though a
		// 0-trip execution never makes them: later reads exercise the
		// undefined-local runtime error in both executors.
		// Every third loop is Parallel, without a draw, so the corpus's
		// kernels keep their shape and fire the parallel-loop events.
		return &For{IV: iv, Lo: lo, Hi: hi, Step: step, Body: body, Parallel: g.nextIV%3 == 0}
	}
}

func (g *kgen) storeStmt() Stmt {
	o := g.objs[g.r.Intn(len(g.objs))]
	return St(o.Name, g.idx(o.Len), g.arg(2))
}

// idx returns an index expression: usually clamped in-range via
// mod-of-abs, sometimes raw so out-of-range errors get coverage, and
// sometimes a bare leaf the VM reads in place.
func (g *kgen) idx(length int) Expr {
	switch g.r.Intn(6) {
	case 0:
		return g.leaf()
	case 1:
		return g.expr(1)
	}
	return ModE(AbsE(g.expr(1)), C(float64(length)))
}

// bound returns def half the time, otherwise an expression over the
// in-scope leaves and loads.
func (g *kgen) bound(def Expr) Expr {
	if g.r.Intn(2) == 0 {
		return def
	}
	return g.expr(1)
}

// arg returns an operand: half the time a bare leaf, which the VM reads
// in place rather than through a register.
func (g *kgen) arg(depth int) Expr {
	if g.r.Intn(2) == 0 {
		return g.leaf()
	}
	return g.expr(depth)
}

func (g *kgen) expr(depth int) Expr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.leaf()
	}
	switch g.r.Intn(8) {
	case 0, 1, 2:
		ops := []BinOp{Add, Sub, Mul, Div, Mod, Min, Max, Lt, Le, Gt, Ge, Eq, Ne}
		return Bin{Op: ops[g.r.Intn(len(ops))], A: g.expr(depth - 1), B: g.expr(depth - 1)}
	case 3:
		ops := []UnOp{Abs, Neg, Sqrt, Floor}
		return Un{Op: ops[g.r.Intn(len(ops))], A: g.arg(depth - 1)}
	case 4:
		return SelE(g.arg(depth-1), g.arg(depth-1), g.arg(depth-1))
	case 5, 6:
		o := g.objs[g.r.Intn(len(g.objs))]
		return Ld(o.Name, g.idx(o.Len))
	default:
		return g.leaf()
	}
}

func (g *kgen) leaf() Expr {
	switch c := g.r.Intn(8); {
	case c < 3:
		return C(float64(g.r.Intn(9)) - 2)
	case c < 5:
		return P(fuzzParams[g.r.Intn(len(fuzzParams))])
	case c < 7 && len(g.ivs) > 0:
		return V(g.ivs[g.r.Intn(len(g.ivs))])
	default:
		if name := g.definedLocal(); name != "" {
			return L(name)
		}
		return C(float64(g.r.Intn(5)))
	}
}

// definedLocal returns a random local the validator considers defined
// here, or "" when there is none.
func (g *kgen) definedLocal() string {
	var defined []string
	for _, name := range []string{"l0", "l1", "l2", "l3"} {
		if g.locals[name] {
			defined = append(defined, name)
		}
	}
	if len(defined) == 0 {
		return ""
	}
	return defined[g.r.Intn(len(defined))]
}

// iterBudget bounds the loop iterations of one generated kernel. A bound
// drawn from a loaded value or a local can ask for millions of
// iterations, or for an endless loop; such seeds are not executed.
const iterBudget = 1 << 14

type budgetExceeded struct{}

// withinBudget reports whether the reference interpreter finishes k
// within iterBudget loop iterations.
func withinBudget(k *Kernel, params map[string]float64, mem map[string][]float64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, over := r.(budgetExceeded); !over {
				panic(r)
			}
			ok = false
		}
	}()
	n := 0
	Run(k, params, copyMem(mem), &Hooks{OnLoopIter: func(*For) {
		if n++; n > iterBudget {
			panic(budgetExceeded{})
		}
	}})
	return true
}

// crossCheck runs one generated kernel through both executors (hooks off
// and hooks on) and reports any divergence. It returns the kernel, or nil
// when the kernel would run past iterBudget and was not executed.
func crossCheck(t *testing.T, seed int64) *Kernel {
	t.Helper()
	k, params, mem := genKernel(seed)
	if err := Validate(k); err != nil {
		t.Fatalf("seed %d: generator produced invalid kernel: %v\n%s", seed, err, Format(k))
	}
	if !withinBudget(k, params, mem) {
		return nil
	}
	p, err := NewProgram(k)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\n%s", seed, err, Format(k))
	}

	memI, memV := copyMem(mem), copyMem(mem)
	cI, errI := Run(k, params, memI, nil)
	cV, errV := p.Run(params, memV, nil)
	diverge := func(stage, format string, args ...any) {
		t.Fatalf("seed %d: %s: %s\nkernel:\n%s", seed, stage, fmt.Sprintf(format, args...), Format(k))
	}
	if (errI == nil) != (errV == nil) || (errI != nil && errI.Error() != errV.Error()) {
		diverge("hooks off", "error parity: interp=%v vm=%v", errI, errV)
	}
	if errI == nil {
		if !reflect.DeepEqual(cI, cV) {
			diverge("hooks off", "counts: interp=%+v vm=%+v", cI, cV)
		}
		if !memBitsEqual(memI, memV) {
			diverge("hooks off", "data: interp=%v vm=%v", memI, memV)
		}
	}

	var logI, logV []hookEvent
	memI, memV = copyMem(mem), copyMem(mem)
	cI, errI = Run(k, params, memI, recordingHooks(&logI))
	cV, errV = p.Run(params, memV, recordingHooks(&logV))
	if (errI == nil) != (errV == nil) || (errI != nil && errI.Error() != errV.Error()) {
		diverge("hooked", "error parity: interp=%v vm=%v", errI, errV)
	}
	if !reflect.DeepEqual(logI, logV) {
		diverge("hooked", "event sequences: interp %d events, vm %d events", len(logI), len(logV))
	}
	if errI == nil {
		if !reflect.DeepEqual(cI, cV) {
			diverge("hooked", "counts: interp=%+v vm=%+v", cI, cV)
		}
		if !memBitsEqual(memI, memV) {
			diverge("hooked", "data: interp=%v vm=%v", memI, memV)
		}
	}
	return k
}

// operandShapes records the operand shapes in k that reading leaves in
// place could get wrong: what each loop bound is, a loop bounded by a
// local its body reassigns, and bare leaves as Un, Sel and store operands.
func operandShapes(k *Kernel, into map[string]bool) {
	kind := func(e Expr) string {
		switch e.(type) {
		case Const:
			return "const"
		case Param:
			return "param"
		case IV:
			return "iv"
		case Local:
			return "local"
		case Load:
			return "load"
		}
		return "expr"
	}
	leaf := func(e Expr) bool {
		switch kind(e) {
		case "load", "expr":
			return false
		}
		return true
	}
	WalkStmts(k.Body, func(s Stmt) {
		switch x := s.(type) {
		case Store:
			into["store-index-leaf"] = into["store-index-leaf"] || leaf(x.Idx)
			into["store-value-leaf"] = into["store-value-leaf"] || leaf(x.Val)
		case *For:
			into["lo-"+kind(x.Lo)] = true
			into["hi-"+kind(x.Hi)] = true
			into["step-"+kind(x.Step)] = true
			if l, ok := x.Hi.(Local); ok {
				WalkStmts(x.Body, func(s Stmt) {
					if let, ok := s.(Let); ok && let.Name == l.Name {
						into["hi-local-reassigned"] = true
					}
				}, nil)
			}
		}
	}, func(e Expr) {
		switch x := e.(type) {
		case Un:
			into["un-leaf"] = into["un-leaf"] || leaf(x.A)
		case Sel:
			into["sel-leaf"] = into["sel-leaf"] || leaf(x.Cond) || leaf(x.T) || leaf(x.F)
		}
	})
}

// fuzzCorpusSeeds is the size of the fixed seed range TestVMFuzzCorpus
// sweeps.
const fuzzCorpusSeeds = 500

// TestVMFuzzCorpus sweeps a fixed seed range on every test run, so the
// cross-check runs in plain CI without -fuzz, and requires that the seeds
// it executed cover every operand shape in-place reads could break.
func TestVMFuzzCorpus(t *testing.T) {
	const n = fuzzCorpusSeeds
	shapes := map[string]bool{}
	ran := 0
	for seed := int64(0); seed < n; seed++ {
		if k := crossCheck(t, seed); k != nil {
			ran++
			operandShapes(k, shapes)
		}
	}
	if ran < n*9/10 {
		t.Errorf("only %d of %d seeds ran within the iteration budget", ran, n)
	}
	for _, bound := range []string{"lo", "hi", "step"} {
		for _, kind := range []string{"const", "param", "iv", "local", "load", "expr"} {
			if !shapes[bound+"-"+kind] {
				t.Errorf("no executed seed has a loop %s drawn from a %s", bound, kind)
			}
		}
	}
	for _, shape := range []string{"hi-local-reassigned", "store-index-leaf", "store-value-leaf", "un-leaf", "sel-leaf"} {
		if !shapes[shape] {
			t.Errorf("no executed seed has shape %s", shape)
		}
	}
}

// FuzzVMvsInterp is the open-ended variant: go test -fuzz=FuzzVMvsInterp
// explores seeds beyond the fixed corpus.
func FuzzVMvsInterp(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		crossCheck(t, seed)
	})
}
