package ir

import "testing"

func wantInvalid(t *testing.T, k *Kernel, why string) {
	t.Helper()
	if err := Validate(k); err == nil {
		t.Fatalf("Validate accepted invalid kernel (%s)", why)
	}
}

func TestValidateAcceptsGoodKernel(t *testing.T) {
	if err := Validate(vecAddKernel(8)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	obj := []ObjDecl{{Name: "A", Len: 4, ElemBytes: 8}}
	wantInvalid(t, &Kernel{Name: "", Objects: obj}, "empty name")
	wantInvalid(t, &Kernel{Name: "k", Objects: []ObjDecl{{Name: "", Len: 4, ElemBytes: 8}}}, "empty object name")
	wantInvalid(t, &Kernel{Name: "k", Objects: []ObjDecl{{Name: "A", Len: 0, ElemBytes: 8}}}, "zero length")
	wantInvalid(t, &Kernel{Name: "k", Objects: []ObjDecl{{Name: "A", Len: 4, ElemBytes: 3}}}, "bad width")
	wantInvalid(t, &Kernel{Name: "k", Objects: []ObjDecl{{Name: "A", Len: 4, ElemBytes: 8}, {Name: "A", Len: 4, ElemBytes: 8}}}, "dup object")
	wantInvalid(t, &Kernel{Name: "k", Params: []string{"N", "N"}, Objects: obj}, "dup param")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{St("B", C(0), C(1))}}, "undeclared store object")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{St("A", Ld("B", C(0)), C(1))}}, "undeclared load object")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{St("A", P("N"), C(1))}}, "undeclared param")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{St("A", V("i"), C(1))}}, "IV outside loop")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{St("A", L("x"), C(1))}}, "undefined local")
	wantInvalid(t, &Kernel{Name: "k", Objects: obj, Body: []Stmt{
		Loop("i", C(0), C(2), Loop("i", C(0), C(2), St("A", V("i"), C(1)))),
	}}, "IV shadowing")
}

func TestValidateIVScopeEndsWithLoop(t *testing.T) {
	k := &Kernel{
		Name:    "scope",
		Objects: []ObjDecl{{Name: "A", Len: 4, ElemBytes: 8}},
		Body: []Stmt{
			Loop("i", C(0), C(2), St("A", V("i"), C(1))),
			St("A", V("i"), C(2)), // i no longer in scope
		},
	}
	wantInvalid(t, k, "IV used after loop")
}

func TestValidateLocalsAcrossIfArms(t *testing.T) {
	obj := []ObjDecl{{Name: "A", Len: 4, ElemBytes: 8}}
	// Local defined in both arms is visible afterwards.
	good := &Kernel{
		Name: "both", Objects: obj,
		Body: []Stmt{
			Cond(C(1),
				[]Stmt{Set("x", C(1))},
				[]Stmt{Set("x", C(2))}),
			St("A", C(0), L("x")),
		},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("both-arms local rejected: %v", err)
	}
	// Local defined in only one arm is not.
	bad := &Kernel{
		Name: "one", Objects: obj,
		Body: []Stmt{
			Cond(C(1), []Stmt{Set("x", C(1))}, nil),
			St("A", C(0), L("x")),
		},
	}
	wantInvalid(t, bad, "one-arm local used after if")
}

func TestWalkHelpers(t *testing.T) {
	inner := Loop("j", C(0), C(2), St("B", V("j"), Ld("A", V("j"))))
	outer := Loop("i", C(0), C(2), inner)
	body := []Stmt{outer}

	loops := Loops(body)
	if len(loops) != 2 {
		t.Fatalf("Loops = %d, want 2", len(loops))
	}
	in := InnermostLoops(body)
	if len(in) != 1 || in[0] != inner {
		t.Fatalf("InnermostLoops wrong: %v", in)
	}
}
