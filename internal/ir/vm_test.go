package ir

import (
	"reflect"
	"testing"
)

// vmKernel is a small kernel exercising every statement and expression
// form: nested loops, ifs, sels, stores, locals, reductions.
func vmKernel() *Kernel {
	return &Kernel{
		Name:   "vmtest",
		Params: []string{"n", "m"},
		Objects: []ObjDecl{
			{Name: "a", Len: 16, ElemBytes: 8},
			{Name: "out", Len: 16, ElemBytes: 4},
		},
		Body: []Stmt{
			Set("acc", C(0)),
			Loop("i", C(0), P("n"),
				Set("v", Ld("a", V("i"))),
				Cond(GtE(L("v"), C(2)),
					[]Stmt{Set("acc", AddE(L("acc"), L("v")))},
					[]Stmt{Set("acc", SubE(L("acc"), C(1)))},
				),
				Loop("j", C(0), P("m"),
					St("out", ModE(AddE(V("i"), V("j")), C(16)),
						SelE(LtE(V("j"), C(2)), MulE(L("v"), C(2)), SqrtE(AbsE(L("v"))))),
				),
			),
			St("out", C(0), L("acc")),
		},
	}
}

func vmInputs() (map[string]float64, map[string][]float64) {
	params := map[string]float64{"n": 9, "m": 3}
	a := make([]float64, 16)
	for i := range a {
		a[i] = float64((i*7)%5) - 1
	}
	return params, map[string][]float64{"a": a, "out": make([]float64, 16)}
}

func copyMem(m map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for k, v := range m {
		c := make([]float64, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// TestVMMatchesInterp checks counts (including per-loop attribution) and
// stored data agree between the executors on the representative kernel.
func TestVMMatchesInterp(t *testing.T) {
	k := vmKernel()
	params, mem := vmInputs()
	memI, memV := copyMem(mem), copyMem(mem)

	want, err := Run(k, params, memI, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	p, err := NewProgram(k)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := p.Run(params, memV, nil)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("counts diverge:\ninterp: %+v\nvm:     %+v", want, got)
	}
	if !reflect.DeepEqual(memI, memV) {
		t.Errorf("stored data diverges:\ninterp: %v\nvm:     %v", memI, memV)
	}
}

// hookEvent is one recorded hook callback.
type hookEvent struct {
	kind  string
	class OpClass
	obj   int
	idx   int
	taint Taint
	n     int64 // parallel trip count
	loop  *For
}

func recordingHooks(log *[]hookEvent) *Hooks {
	add := func(e hookEvent) { *log = append(*log, e) }
	return &Hooks{
		OnOp:            func(class OpClass) { add(hookEvent{kind: "op", class: class}) },
		OnLoad:          func(obj, idx int, t Taint) { add(hookEvent{kind: "load", obj: obj, idx: idx, taint: t}) },
		OnStore:         func(obj, idx int) { add(hookEvent{kind: "store", obj: obj, idx: idx}) },
		OnBranch:        func() { add(hookEvent{kind: "branch"}) },
		OnLoopIter:      func(f *For) { add(hookEvent{kind: "iter", loop: f}) },
		OnParallelEnter: func(f *For, n int64) { add(hookEvent{kind: "par-enter", loop: f, n: n}) },
		OnParallelExit:  func(f *For) { add(hookEvent{kind: "par-exit", loop: f}) },
	}
}

// TestVMHookSequenceMatchesInterp requires the exact same hook event
// sequence from both executors — the coverage analysis depends on it.
func TestVMHookSequenceMatchesInterp(t *testing.T) {
	k := vmKernel()
	params, mem := vmInputs()

	var logI, logV []hookEvent
	if _, err := Run(k, params, copyMem(mem), recordingHooks(&logI)); err != nil {
		t.Fatalf("interp: %v", err)
	}
	p, err := NewProgram(k)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := p.Run(params, copyMem(mem), recordingHooks(&logV)); err != nil {
		t.Fatalf("vm: %v", err)
	}
	if !reflect.DeepEqual(logI, logV) {
		i := 0
		for i < len(logI) && i < len(logV) && logI[i] == logV[i] {
			i++
		}
		t.Fatalf("hook sequences diverge at %d (interp %d events, vm %d events)", i, len(logI), len(logV))
	}
}

// TestVMErrorParity drives both executors into every runtime and entry
// error and requires identical error strings.
func TestVMErrorParity(t *testing.T) {
	divK := &Kernel{
		Name:    "dividee",
		Params:  []string{"d"},
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body:    []Stmt{St("o", C(0), DivE(C(1), P("d")))},
	}
	oobK := &Kernel{
		Name:    "oob",
		Params:  []string{"i"},
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body:    []Stmt{Set("x", Ld("o", P("i")))},
	}
	stepK := &Kernel{
		Name:    "badstep",
		Params:  []string{"s"},
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body:    []Stmt{&For{IV: "i", Lo: C(0), Hi: C(4), Step: P("s"), Body: []Stmt{St("o", V("i"), C(1))}}},
	}
	undefK := &Kernel{
		Name:    "undef",
		Params:  []string{"n"},
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body: []Stmt{
			Loop("i", C(0), P("n"), Set("x", C(1))),
			// Validate accepts this (the loop body defines x), but a
			// 0-trip execution reaches the read with x unassigned.
			St("o", C(0), L("x")),
		},
	}
	mem := func() map[string][]float64 { return map[string][]float64{"o": make([]float64, 4)} }
	cases := []struct {
		name   string
		k      *Kernel
		params map[string]float64
		mem    map[string][]float64
	}{
		{"divide-by-zero", divK, map[string]float64{"d": 0}, mem()},
		{"mod-by-zero", &Kernel{Name: "modz", Params: []string{"d"},
			Objects: divK.Objects, Body: []Stmt{St("o", C(0), ModE(C(5), P("d")))}},
			map[string]float64{"d": 0.5}, mem()},
		{"index-oob-high", oobK, map[string]float64{"i": 9}, mem()},
		{"index-oob-negative", oobK, map[string]float64{"i": -1}, mem()},
		{"store-index-oob", &Kernel{Name: "soob", Params: []string{"i"},
			Objects: divK.Objects, Body: []Stmt{St("o", P("i"), C(1))}},
			map[string]float64{"i": 4}, mem()},
		{"non-positive-step", stepK, map[string]float64{"s": 0}, mem()},
		{"negative-step", stepK, map[string]float64{"s": -2}, mem()},
		{"undefined-local", undefK, map[string]float64{"n": 0}, mem()},
		{"missing-param", divK, map[string]float64{}, mem()},
		{"missing-object", divK, map[string]float64{"d": 1}, map[string][]float64{}},
		{"wrong-object-size", divK, map[string]float64{"d": 1},
			map[string][]float64{"o": make([]float64, 3)}},
	}
	for _, tc := range cases {
		_, errI := Run(tc.k, tc.params, copyMem(tc.mem), nil)
		p, err := NewProgram(tc.k)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		_, errV := p.Run(tc.params, copyMem(tc.mem), nil)
		if errI == nil || errV == nil {
			t.Fatalf("%s: expected errors, interp=%v vm=%v", tc.name, errI, errV)
		}
		if errI.Error() != errV.Error() {
			t.Errorf("%s: error strings diverge:\ninterp: %v\nvm:     %v", tc.name, errI, errV)
		}
	}

	// Success case for the undefined-local kernel: one trip defines x.
	_, errI := Run(undefK, map[string]float64{"n": 1}, mem(), nil)
	p, _ := NewProgram(undefK)
	_, errV := p.Run(map[string]float64{"n": 1}, mem(), nil)
	if errI != nil || errV != nil {
		t.Errorf("undefined-local with n=1: interp=%v vm=%v", errI, errV)
	}
}

// TestVMInvalidKernelParity: NewProgram returns the same validation error
// ir.Run reports for an invalid kernel.
func TestVMInvalidKernelParity(t *testing.T) {
	bad := &Kernel{
		Name:    "bad",
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body:    []Stmt{St("o", C(0), L("nope"))},
	}
	_, errI := Run(bad, nil, map[string][]float64{"o": make([]float64, 4)}, nil)
	_, errV := NewProgram(bad)
	if errI == nil || errV == nil || errI.Error() != errV.Error() {
		t.Fatalf("validation parity: interp=%v compile=%v", errI, errV)
	}
}

// TestVMZeroTripLoopNoByLoopEntry preserves the interpreter's lazy
// ByLoop semantics: loops that never trip leave no entry.
func TestVMZeroTripLoopNoByLoopEntry(t *testing.T) {
	k := &Kernel{
		Name:    "zerotrip",
		Params:  []string{"n"},
		Objects: []ObjDecl{{Name: "o", Len: 4, ElemBytes: 8}},
		Body:    []Stmt{Loop("i", C(0), P("n"), St("o", V("i"), C(1)))},
	}
	p, err := NewProgram(k)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := p.Run(map[string]float64{"n": 0}, map[string][]float64{"o": make([]float64, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts.ByLoop) != 0 || counts.LoopIters != 0 {
		t.Fatalf("0-trip loop left counts: %+v", counts)
	}
}

// TestProgramFromImageRejectsMismatch: binding an image to a different
// kernel shape fails loudly.
func TestProgramFromImageRejectsMismatch(t *testing.T) {
	p, err := NewProgram(vmKernel())
	if err != nil {
		t.Fatal(err)
	}
	other := &Kernel{
		Name:    "vmtest",
		Params:  []string{"n"}, // fewer params
		Objects: vmKernel().Objects,
		Body:    []Stmt{St("out", C(0), P("n"))},
	}
	if _, err := ProgramFromImage(p.Image(), other); err == nil {
		t.Fatal("image bound to mismatched kernel without error")
	}
}
