package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAffineSimple(t *testing.T) {
	inner := map[string]bool{"j": true}
	// (i*W + j): affine in j with coeff 1; i*W folds into offset.
	e := Idx2(V("i"), P("W"), V("j"))
	a, ok := AnalyzeAffine(e, inner, nil)
	if !ok {
		t.Fatal("not affine")
	}
	if len(a.Coeffs) != 1 {
		t.Fatalf("coeffs = %v", a.Coeffs)
	}
	c, err := EvalScalar(a.Coeffs["j"], nil, nil)
	if err != nil || c != 1 {
		t.Fatalf("coeff j = %v (%v)", c, err)
	}
	off, err := EvalScalar(a.Offset, map[string]float64{"W": 10}, map[string]float64{"i": 3})
	if err != nil || off != 30 {
		t.Fatalf("offset = %v (%v)", off, err)
	}
}

func TestAffineStrideWithParamCoefficient(t *testing.T) {
	// Column-major: j*W + i, analyzed wrt j: stride W.
	inner := map[string]bool{"j": true}
	e := AddE(MulE(V("j"), P("W")), V("i"))
	a, ok := AnalyzeAffine(e, inner, nil)
	if !ok {
		t.Fatal("not affine")
	}
	c, err := EvalScalar(a.Coeffs["j"], map[string]float64{"W": 64}, nil)
	if err != nil || c != 64 {
		t.Fatalf("stride = %v (%v)", c, err)
	}
}

func TestAffineRejectsIndirect(t *testing.T) {
	inner := map[string]bool{"i": true}
	e := Ld("idx", V("i"))
	if _, ok := AnalyzeAffine(AddE(e, C(1)), inner, nil); ok {
		t.Fatal("load-containing index classified affine")
	}
}

func TestAffineRejectsIVProduct(t *testing.T) {
	inner := map[string]bool{"i": true, "j": true}
	if _, ok := AnalyzeAffine(MulE(V("i"), V("j")), inner, nil); ok {
		t.Fatal("i*j classified affine")
	}
}

func TestAffineNegAndSub(t *testing.T) {
	inner := map[string]bool{"i": true}
	// (N-1) - i => coeff -1, offset N-1.
	e := SubE(SubE(P("N"), C(1)), V("i"))
	a, ok := AnalyzeAffine(e, inner, nil)
	if !ok {
		t.Fatal("not affine")
	}
	c, _ := EvalScalar(a.Coeffs["i"], nil, nil)
	if c != -1 {
		t.Fatalf("coeff = %g, want -1", c)
	}
	off, _ := EvalScalar(a.Offset, map[string]float64{"N": 8}, nil)
	if off != 7 {
		t.Fatalf("offset = %g, want 7", off)
	}
}

func TestAffineThroughLocalDefs(t *testing.T) {
	inner := map[string]bool{"i": true}
	defs := map[string]Expr{"base": MulE(V("row"), P("W"))}
	e := AddE(L("base"), V("i"))
	a, ok := AnalyzeAffine(e, inner, defs)
	if !ok {
		t.Fatal("not affine through local def")
	}
	off, err := EvalScalar(a.Offset, map[string]float64{"W": 5}, map[string]float64{"row": 2})
	if err != nil || off != 10 {
		t.Fatalf("offset = %v (%v)", off, err)
	}
}

func TestAffineUnknownLocalRejected(t *testing.T) {
	inner := map[string]bool{"i": true}
	if _, ok := AnalyzeAffine(AddE(L("mystery"), V("i")), inner, nil); ok {
		t.Fatal("unknown local accepted")
	}
}

func TestAffineCyclicLocalDefsTerminate(t *testing.T) {
	defs := map[string]Expr{"a": L("b"), "b": L("a")}
	if _, ok := AnalyzeAffine(L("a"), map[string]bool{"i": true}, defs); ok {
		t.Fatal("cyclic defs classified affine")
	}
}

func TestAffineZeroCoeffElided(t *testing.T) {
	inner := map[string]bool{"i": true}
	// i - i: coefficient cancels to zero.
	a, ok := AnalyzeAffine(SubE(V("i"), V("i")), inner, nil)
	if !ok {
		t.Fatal("not affine")
	}
	if len(a.Coeffs) != 0 {
		t.Fatalf("coeffs = %v, want none", a.Coeffs)
	}
}

// TestAffineRecoversRandomAffine builds random affine expressions
// c0 + c1*i + c2*j in scrambled association orders and verifies the analyzer
// recovers a form that evaluates identically to direct interpretation.
func TestAffineRecoversRandomAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(c0, c1, c2 int8, iv, jv uint8) bool {
		// Build ((c1*i + c0) + j*c2), sometimes with extra +0/-0 noise.
		e := AddE(AddE(MulE(C(float64(c1)), V("i")), C(float64(c0))), MulE(V("j"), C(float64(c2))))
		if rng.Intn(2) == 0 {
			e = SubE(AddE(e, C(5)), C(5))
		}
		a, ok := AnalyzeAffine(e, map[string]bool{"i": true, "j": true}, nil)
		if !ok {
			return false
		}
		ivs := map[string]float64{"i": float64(iv % 64), "j": float64(jv % 64)}
		want := float64(c0) + float64(c1)*ivs["i"] + float64(c2)*ivs["j"]
		got, err := EvalScalar(a.Offset, nil, ivs)
		if err != nil {
			return false
		}
		for name, coef := range a.Coeffs {
			cv, err := EvalScalar(coef, nil, ivs)
			if err != nil {
				return false
			}
			got += cv * ivs[name]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalScalarMatchesInterp cross-checks the scalar evaluator against the
// full interpreter on load-free expressions.
func TestEvalScalarMatchesInterp(t *testing.T) {
	f := func(a, b int16) bool {
		av, bv := float64(a), float64(b)
		exprs := []Expr{
			AddE(C(av), C(bv)),
			SubE(C(av), C(bv)),
			MulE(C(av), C(bv)),
			MinE(C(av), C(bv)),
			MaxE(C(av), C(bv)),
			LtE(C(av), C(bv)),
			GeE(C(av), C(bv)),
			AbsE(C(av)),
			NegE(C(bv)),
			SelE(LtE(C(av), C(bv)), C(av), C(bv)),
		}
		for _, e := range exprs {
			k := &Kernel{
				Name:    "x",
				Objects: []ObjDecl{{Name: "o", Len: 1, ElemBytes: 8}},
				Body:    []Stmt{St("o", C(0), e)},
			}
			mem := map[string][]float64{"o": {0}}
			if _, err := Run(k, nil, mem, nil); err != nil {
				return false
			}
			got, err := EvalScalar(e, nil, nil)
			if err != nil || got != mem["o"][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalScalarRejectsLoads(t *testing.T) {
	if _, err := EvalScalar(Ld("A", C(0)), nil, nil); err == nil {
		t.Fatal("EvalScalar accepted a load")
	}
	if _, err := EvalScalar(L("x"), nil, nil); err == nil {
		t.Fatal("EvalScalar accepted a local")
	}
}

// TestEvalScalarErrors pins EvalScalar's error texts, including which
// error comes first when an expression holds several: Bin evaluates A then
// B, and Sel evaluates its condition and both arms.
func TestEvalScalarErrors(t *testing.T) {
	params := map[string]float64{"N": 4}
	ivs := map[string]float64{"i": 1}
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{P("M"), `ir: kernel "EvalScalar": read of unknown parameter "M"`},
		{P("i"), `ir: kernel "EvalScalar": read of unknown parameter "i"`},
		{V("j"), `ir: kernel "EvalScalar": read of induction variable "j" outside its loop`},
		{V("N"), `ir: kernel "EvalScalar": read of induction variable "N" outside its loop`},
		{L("x"), `ir: kernel "EvalScalar": read of undefined local "x"`},
		{Ld("A", C(0)), `ir: kernel "EvalScalar": access to undeclared object "A"`},
		{Ld("A", L("x")), `ir: kernel "EvalScalar": access to undeclared object "A"`},
		{DivE(P("N"), C(0)), `ir: kernel "EvalScalar": ir: division by zero`},
		{ModE(V("i"), C(0.5)), `ir: kernel "EvalScalar": ir: division by zero`},
		{AddE(L("a"), P("B")), `ir: kernel "EvalScalar": read of undefined local "a"`},
		{AddE(DivE(C(1), C(0)), L("b")), `ir: kernel "EvalScalar": ir: division by zero`},
		{NegE(V("k")), `ir: kernel "EvalScalar": read of induction variable "k" outside its loop`},
		{SelE(C(1), C(2), L("f")), `ir: kernel "EvalScalar": read of undefined local "f"`},
		{SelE(C(0), L("t"), C(3)), `ir: kernel "EvalScalar": read of undefined local "t"`},
		{SelE(P("c"), L("t"), L("f")), `ir: kernel "EvalScalar": read of unknown parameter "c"`},
		{nil, `ir: kernel "EvalScalar": unknown expression <nil>`},
	} {
		v, err := EvalScalar(c.e, params, ivs)
		if err == nil || err.Error() != c.want {
			t.Errorf("EvalScalar(%v) = %v, %v; want error %q", c.e, v, err, c.want)
		}
	}
	if v, err := EvalScalar(SelE(LtE(V("i"), P("N")), ModE(C(7), P("N")), C(0)), params, ivs); err != nil || v != 3 {
		t.Errorf("EvalScalar(sel) = %v, %v; want 3", v, err)
	}
}

func TestAffineStringAndIVs(t *testing.T) {
	a, ok := AnalyzeAffine(AddE(MulE(C(3), V("i")), AddE(V("j"), C(7))), map[string]bool{"i": true, "j": true}, nil)
	if !ok {
		t.Fatal("not affine")
	}
	ivs := a.IVs()
	if len(ivs) != 2 || ivs[0] != "i" || ivs[1] != "j" {
		t.Fatalf("IVs = %v", ivs)
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}
