package ir

import (
	"math"
	"testing"
)

func run(t *testing.T, k *Kernel, params map[string]float64, mem map[string][]float64) *Counts {
	t.Helper()
	c, err := Run(k, params, mem, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", k.Name, err)
	}
	return c
}

func vecAddKernel(n int) *Kernel {
	return &Kernel{
		Name:   "vecadd",
		Params: []string{"N"},
		Objects: []ObjDecl{
			{Name: "A", Len: n, ElemBytes: 8},
			{Name: "B", Len: n, ElemBytes: 8},
			{Name: "C", Len: n, ElemBytes: 8},
		},
		Body: []Stmt{
			Loop("i", C(0), P("N"),
				St("C", V("i"), AddE(Ld("A", V("i")), Ld("B", V("i")))),
			),
		},
	}
}

func TestVecAdd(t *testing.T) {
	const n = 16
	k := vecAddKernel(n)
	mem := map[string][]float64{
		"A": make([]float64, n), "B": make([]float64, n), "C": make([]float64, n),
	}
	for i := 0; i < n; i++ {
		mem["A"][i] = float64(i)
		mem["B"][i] = float64(2 * i)
	}
	c := run(t, k, map[string]float64{"N": n}, mem)
	for i := 0; i < n; i++ {
		if mem["C"][i] != float64(3*i) {
			t.Fatalf("C[%d] = %g, want %g", i, mem["C"][i], float64(3*i))
		}
	}
	if c.Loads != 2*n || c.Stores != n || c.Ops != n {
		t.Fatalf("counts = loads %d stores %d ops %d, want %d/%d/%d", c.Loads, c.Stores, c.Ops, 2*n, n, n)
	}
	if c.LoopIters != n {
		t.Fatalf("LoopIters = %d, want %d", c.LoopIters, n)
	}
}

func TestNestedLoopsAndIf(t *testing.T) {
	// out[i*W+j] = (i+j) even ? 1 : 0 over 4x4.
	k := &Kernel{
		Name:    "checker",
		Params:  []string{"W"},
		Objects: []ObjDecl{{Name: "out", Len: 16, ElemBytes: 4}},
		Body: []Stmt{
			Loop("i", C(0), C(4),
				Loop("j", C(0), C(4),
					Cond(EqE(ModE(AddE(V("i"), V("j")), C(2)), C(0)),
						[]Stmt{St("out", Idx2(V("i"), P("W"), V("j")), C(1))},
						[]Stmt{St("out", Idx2(V("i"), P("W"), V("j")), C(0))},
					),
				),
			),
		},
	}
	mem := map[string][]float64{"out": make([]float64, 16)}
	run(t, k, map[string]float64{"W": 4}, mem)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if (i+j)%2 == 0 {
				want = 1
			}
			if mem["out"][i*4+j] != want {
				t.Fatalf("out[%d,%d] = %g, want %g", i, j, mem["out"][i*4+j], want)
			}
		}
	}
}

func TestLoopCarriedReduction(t *testing.T) {
	// sum over A written to S[0].
	k := &Kernel{
		Name:    "reduce",
		Params:  []string{"N"},
		Objects: []ObjDecl{{Name: "A", Len: 8, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []Stmt{
			Set("sum", C(0)),
			Loop("i", C(0), P("N"),
				Set("sum", AddE(L("sum"), Ld("A", V("i")))),
			),
			St("S", C(0), L("sum")),
		},
	}
	mem := map[string][]float64{"A": {1, 2, 3, 4, 5, 6, 7, 8}, "S": {0}}
	run(t, k, map[string]float64{"N": 8}, mem)
	if mem["S"][0] != 36 {
		t.Fatalf("S[0] = %g, want 36", mem["S"][0])
	}
}

func TestPointerChaseSemantics(t *testing.T) {
	// p = next[p] repeated; a permutation cycle.
	next := []float64{3, 0, 1, 2}
	k := &Kernel{
		Name:    "chase",
		Params:  []string{"N"},
		Objects: []ObjDecl{{Name: "next", Len: 4, ElemBytes: 8}, {Name: "out", Len: 1, ElemBytes: 8}},
		Body: []Stmt{
			Set("p", C(0)),
			Loop("k", C(0), P("N"),
				Set("p", Ld("next", L("p"))),
			),
			St("out", C(0), L("p")),
		},
	}
	mem := map[string][]float64{"next": next, "out": {0}}
	run(t, k, map[string]float64{"N": 5}, mem)
	// 0 -> 3 -> 2 -> 1 -> 0 -> 3
	if mem["out"][0] != 3 {
		t.Fatalf("out = %g, want 3", mem["out"][0])
	}
}

func TestDynamicLoopBoundsFromMemory(t *testing.T) {
	// CSR-style: for each row, sum cols between rowptr[i] and rowptr[i+1].
	k := &Kernel{
		Name:   "csrsum",
		Params: []string{"R"},
		Objects: []ObjDecl{
			{Name: "rowptr", Len: 4, ElemBytes: 8},
			{Name: "vals", Len: 6, ElemBytes: 8},
			{Name: "out", Len: 3, ElemBytes: 8},
		},
		Body: []Stmt{
			Loop("i", C(0), P("R"),
				Set("acc", C(0)),
				Loop("e", Ld("rowptr", V("i")), Ld("rowptr", AddE(V("i"), C(1))),
					Set("acc", AddE(L("acc"), Ld("vals", V("e")))),
				),
				St("out", V("i"), L("acc")),
			),
		},
	}
	mem := map[string][]float64{
		"rowptr": {0, 2, 3, 6},
		"vals":   {1, 2, 10, 100, 200, 300},
		"out":    make([]float64, 3),
	}
	run(t, k, map[string]float64{"R": 3}, mem)
	want := []float64{3, 10, 600}
	for i, w := range want {
		if mem["out"][i] != w {
			t.Fatalf("out[%d] = %g, want %g", i, mem["out"][i], w)
		}
	}
}

func TestSelEvaluatesBothArms(t *testing.T) {
	k := &Kernel{
		Name:    "sel",
		Objects: []ObjDecl{{Name: "o", Len: 1, ElemBytes: 8}},
		Body: []Stmt{
			St("o", C(0), SelE(C(1), C(42), C(7))),
		},
	}
	mem := map[string][]float64{"o": {0}}
	c := run(t, k, nil, mem)
	if mem["o"][0] != 42 {
		t.Fatalf("o = %g, want 42", mem["o"][0])
	}
	if c.Ops != 1 {
		t.Fatalf("ops = %d, want 1 (the select)", c.Ops)
	}
}

func TestOutOfBoundsIsError(t *testing.T) {
	k := &Kernel{
		Name:    "oob",
		Objects: []ObjDecl{{Name: "A", Len: 2, ElemBytes: 8}},
		Body:    []Stmt{St("A", C(5), C(1))},
	}
	if _, err := Run(k, nil, map[string][]float64{"A": {0, 0}}, nil); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	k := &Kernel{
		Name:    "div0",
		Objects: []ObjDecl{{Name: "A", Len: 1, ElemBytes: 8}},
		Body:    []Stmt{St("A", C(0), DivE(C(1), C(0)))},
	}
	if _, err := Run(k, nil, map[string][]float64{"A": {0}}, nil); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestMissingParamIsError(t *testing.T) {
	k := vecAddKernel(4)
	mem := map[string][]float64{"A": make([]float64, 4), "B": make([]float64, 4), "C": make([]float64, 4)}
	if _, err := Run(k, nil, mem, nil); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestWrongObjectLengthIsError(t *testing.T) {
	k := vecAddKernel(4)
	mem := map[string][]float64{"A": make([]float64, 3), "B": make([]float64, 4), "C": make([]float64, 4)}
	if _, err := Run(k, map[string]float64{"N": 4}, mem, nil); err == nil {
		t.Fatal("expected object-length error")
	}
}

func TestHooksFire(t *testing.T) {
	const n = 8
	k := vecAddKernel(n)
	mem := map[string][]float64{"A": make([]float64, n), "B": make([]float64, n), "C": make([]float64, n)}
	var loads, stores, ops, iters int
	hooks := &Hooks{
		OnLoad:     func(int, int, Taint) { loads++ },
		OnStore:    func(int, int) { stores++ },
		OnOp:       func(OpClass) { ops++ },
		OnLoopIter: func(*For) { iters++ },
	}
	if _, err := Run(k, map[string]float64{"N": n}, mem, hooks); err != nil {
		t.Fatal(err)
	}
	if loads != 2*n || stores != n || ops != n || iters != n {
		t.Fatalf("hooks: loads %d stores %d ops %d iters %d", loads, stores, ops, iters)
	}
}

func TestByLoopAttribution(t *testing.T) {
	inner := Loop("j", C(0), C(3), St("out", V("j"), MulE(V("i"), V("j"))))
	outer := Loop("i", C(0), C(4), inner)
	k := &Kernel{
		Name:    "attr",
		Objects: []ObjDecl{{Name: "out", Len: 3, ElemBytes: 8}},
		Body:    []Stmt{outer},
	}
	mem := map[string][]float64{"out": make([]float64, 3)}
	c := run(t, k, nil, mem)
	lc := c.ByLoop[inner]
	if lc == nil {
		t.Fatal("no counts for inner loop")
	}
	if lc.Trips != 12 || lc.Stores != 12 || lc.Ops != 12 {
		t.Fatalf("inner loop counts = %+v, want trips/stores/ops = 12", *lc)
	}
	oc := c.ByLoop[outer]
	if oc == nil || oc.Trips != 4 {
		t.Fatalf("outer loop trips = %+v, want 4", oc)
	}
	// Inner-loop work must not be attributed to the outer loop.
	if oc.Stores != 0 || oc.Ops != 0 {
		t.Fatalf("outer loop stole inner counts: %+v", *oc)
	}
}

func TestOpClassCounts(t *testing.T) {
	k := &Kernel{
		Name:    "classes",
		Objects: []ObjDecl{{Name: "o", Len: 1, ElemBytes: 8}},
		Body: []Stmt{
			St("o", C(0), AddE(MulE(C(2), C(3)), SqrtE(C(16)))),
		},
	}
	mem := map[string][]float64{"o": {0}}
	c := run(t, k, nil, mem)
	if c.IntOps != 1 || c.ComplexOps != 1 || c.FloatOps != 1 {
		t.Fatalf("class counts int/complex/float = %d/%d/%d, want 1/1/1", c.IntOps, c.ComplexOps, c.FloatOps)
	}
	if mem["o"][0] != 10 {
		t.Fatalf("o = %g, want 10", mem["o"][0])
	}
}

func TestMinMaxAbsSemantics(t *testing.T) {
	k := &Kernel{
		Name:    "mma",
		Objects: []ObjDecl{{Name: "o", Len: 3, ElemBytes: 8}},
		Body: []Stmt{
			St("o", C(0), MinE(C(-2), C(5))),
			St("o", C(1), MaxE(C(-2), C(5))),
			St("o", C(2), AbsE(C(-7))),
		},
	}
	mem := map[string][]float64{"o": make([]float64, 3)}
	run(t, k, nil, mem)
	if mem["o"][0] != -2 || mem["o"][1] != 5 || mem["o"][2] != 7 {
		t.Fatalf("min/max/abs = %v", mem["o"])
	}
}

func TestIVShadowOuterAfterLoop(t *testing.T) {
	// Same IV name in two sequential sibling loops is legal.
	k := &Kernel{
		Name:    "siblings",
		Objects: []ObjDecl{{Name: "o", Len: 2, ElemBytes: 8}},
		Body: []Stmt{
			Loop("i", C(0), C(2), St("o", V("i"), V("i"))),
			Loop("i", C(0), C(2), St("o", V("i"), AddE(Ld("o", V("i")), C(10)))),
		},
	}
	mem := map[string][]float64{"o": make([]float64, 2)}
	run(t, k, nil, mem)
	if mem["o"][0] != 10 || mem["o"][1] != 11 {
		t.Fatalf("o = %v", mem["o"])
	}
}

func TestInstructionsFormula(t *testing.T) {
	c := &Counts{Ops: 10, Loads: 4, Stores: 2, LoopIters: 3}
	if got := c.Instructions(); got != 10+4+2+6 {
		t.Fatalf("Instructions = %d", got)
	}
	if c.MemOps() != 6 {
		t.Fatalf("MemOps = %d", c.MemOps())
	}
}

func TestFloorAndMod(t *testing.T) {
	k := &Kernel{
		Name:    "fm",
		Objects: []ObjDecl{{Name: "o", Len: 2, ElemBytes: 8}},
		Body: []Stmt{
			St("o", C(0), FloorE(C(3.7))),
			St("o", C(1), ModE(C(17), C(5))),
		},
	}
	mem := map[string][]float64{"o": make([]float64, 2)}
	run(t, k, nil, mem)
	if mem["o"][0] != 3 || mem["o"][1] != 2 {
		t.Fatalf("floor/mod = %v", mem["o"])
	}
}

func TestComparisonOps(t *testing.T) {
	cases := []struct {
		op   BinOp
		a, b float64
		want float64
	}{
		{Lt, 1, 2, 1}, {Lt, 2, 2, 0},
		{Le, 2, 2, 1}, {Le, 3, 2, 0},
		{Gt, 3, 2, 1}, {Gt, 2, 2, 0},
		{Ge, 2, 2, 1}, {Ge, 1, 2, 0},
		{Eq, 2, 2, 1}, {Eq, 1, 2, 0},
		{Ne, 1, 2, 1}, {Ne, 2, 2, 0},
		{And, 1, 2, 1}, {And, 1, 0, 0},
		{Or, 0, 2, 1}, {Or, 0, 0, 0},
	}
	for _, tc := range cases {
		k := &Kernel{
			Name:    "cmp",
			Objects: []ObjDecl{{Name: "o", Len: 1, ElemBytes: 8}},
			Body:    []Stmt{St("o", C(0), Bin{Op: tc.op, A: C(tc.a), B: C(tc.b)})},
		}
		mem := map[string][]float64{"o": {math.NaN()}}
		run(t, k, nil, mem)
		if mem["o"][0] != tc.want {
			t.Errorf("%v(%g,%g) = %g, want %g", tc.op, tc.a, tc.b, mem["o"][0], tc.want)
		}
	}
}
