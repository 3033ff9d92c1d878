package ir

import "fmt"

// Hooks receive dynamic-execution events from the bytecode VM
// (Program.Run), the one kernel executor outside tests. Any field may be
// nil. The simulator's host timing model (sim/host.go) runs every kernel
// on the VM with all of them installed; this package's tests hold the VM
// to the tree-walk reference interpreter (interp_oracle_test.go), which
// fires the same events in the same order.
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

// runtimeError carries an executor's failures through panic/recover so its
// dispatch loop stays uncluttered. It never escapes this package.
type runtimeError struct{ err error }

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
