package ir

import (
	"reflect"
	"strings"
	"testing"
)

// hostKernel reduces into %s in a loop nest the tests offload, then
// stores %s twice: B[0] is the epilogue an offload may fold.
func hostKernel() (k *Kernel, outer *For) {
	outer = Loop("i", C(0), P("n"),
		Loop("j", C(0), C(2), Set("s", AddE(L("s"), Ld("A", AddE(V("i"), V("j")))))))
	return &Kernel{
		Name:    "host",
		Params:  []string{"n"},
		Objects: []ObjDecl{{Name: "A", Len: 8, ElemBytes: 8}, {Name: "B", Len: 2, ElemBytes: 8}},
		Body: []Stmt{
			Set("s", C(0)),
			outer,
			St("B", C(0), L("s")),
			St("B", C(1), AddE(L("s"), C(1))),
			Loop("k", C(0), C(2), St("A", V("k"), Ld("A", AddE(V("k"), C(1))))),
		},
	}, outer
}

// TestHostProgramLaunches pins what a host program runs in place of an
// offloaded loop nest: one OnLaunch that evaluates the launch-time
// expressions on demand (loads firing OnLoad, ops OnOp) and assigns the
// outputs; no iteration of the nest; no folded epilogue.
func TestHostProgramLaunches(t *testing.T) {
	k, outer := hostKernel()
	p, err := NewHostProgram(k, map[*For]Offload{outer: {
		Exprs:    []Expr{P("n"), MulE(Ld("A", C(3)), C(2))},
		Outs:     []string{"s"},
		SkipNext: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	mem := map[string][]float64{"A": {0, 1, 2, 3, 4, 5, 6, 7}, "B": {-1, -1}}
	var log []hookEvent
	hooks := recordingHooks(&log)
	var evals []float64
	hooks.OnLaunch = func(f *For, l Launch) {
		if f != outer {
			t.Fatalf("launch of %v, want the offloaded loop", f)
		}
		log = append(log, hookEvent{kind: "launch", loop: f})
		evals = append(evals, l.Eval(1), l.Eval(0))
		l.SetOut(0, 40)
	}
	counts, err := p.Run(map[string]float64{"n": 4}, mem, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{6, 4}; !reflect.DeepEqual(evals, want) {
		t.Errorf("launch-time expressions evaluated to %v, want %v", evals, want)
	}
	// B[0] = %s was folded into the offload; B[1] reads the launch's output.
	if mem["B"][0] != -1 || mem["B"][1] != 41 {
		t.Errorf("B = %v, want [-1 41]", mem["B"])
	}
	inner := k.Body[4].(*For)
	want := []hookEvent{
		{kind: "launch", loop: outer},
		{kind: "load", obj: 0, idx: 3}, {kind: "op", class: ClassComplex}, // Eval(1)
		{kind: "op", class: ClassInt}, {kind: "store", obj: 1, idx: 1}, // B[1] = %s + 1
	}
	for it := range 2 {
		want = append(want, hookEvent{kind: "iter", loop: inner}, hookEvent{kind: "op", class: ClassInt},
			hookEvent{kind: "load", obj: 0, idx: it + 1}, hookEvent{kind: "store", obj: 0, idx: it})
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("events %+v, want %+v", log, want)
	}
	if _, ok := counts.ByLoop[outer]; ok || counts.ByLoop[inner].Trips != 2 {
		t.Errorf("ByLoop %+v: the offloaded loop must not iterate, the host loop twice", counts.ByLoop)
	}
}

func TestHostProgramErrors(t *testing.T) {
	k, outer := hostKernel()
	_, err := NewHostProgram(k, map[*For]Offload{outer: {Exprs: []Expr{V("j")}}})
	if err == nil || !strings.Contains(err.Error(), "out of scope") {
		t.Errorf("launch reading the nest's own induction variable: err = %v", err)
	}
	p, err := NewHostProgram(k, map[*For]Offload{outer: {}})
	if err != nil {
		t.Fatal(err)
	}
	mem := map[string][]float64{"A": make([]float64, 8), "B": make([]float64, 2)}
	if _, err := p.Run(map[string]float64{"n": 4}, mem, &Hooks{}); err == nil || !strings.Contains(err.Error(), "OnLaunch") {
		t.Errorf("host program run without OnLaunch: err = %v", err)
	}
	// A launch that leaves its output unassigned: reading it fails as a
	// read of an undefined local would.
	def := Loop("i", C(0), P("n"), Set("s", Ld("A", V("i"))))
	p, err = NewHostProgram(&Kernel{Name: "h", Params: k.Params, Objects: k.Objects,
		Body: []Stmt{def, St("B", C(0), L("s"))}}, map[*For]Offload{def: {Outs: []string{"s"}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(map[string]float64{"n": 4}, mem, &Hooks{OnLaunch: func(*For, Launch) {}})
	if err == nil || !strings.Contains(err.Error(), `undefined local "s"`) {
		t.Errorf("read of an output the launch never set: err = %v", err)
	}
}
