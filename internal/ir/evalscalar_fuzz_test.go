package ir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// genScalar builds a random expression for EvalScalar: every operator,
// constants that include 0, NaN and infinities (so / and % by zero and NaN
// propagation occur), bound and unknown parameters and induction
// variables, and the forms EvalScalar rejects (locals, loads, a nil
// operand).
func genScalar(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(12) {
		case 0, 1, 2:
			vals := []float64{0, math.Copysign(0, -1), 0.5, 1, -1, 2, 3, 1e300,
				math.Inf(1), math.Inf(-1), math.NaN()}
			return C(vals[r.Intn(len(vals))])
		case 3, 4, 5:
			return P([]string{"n", "a", "b", "zz"}[r.Intn(4)])
		case 6, 7, 8:
			return V([]string{"i", "j", "k"}[r.Intn(3)])
		case 9:
			return L("l")
		case 10:
			return Ld("o", genScalar(r, depth-1))
		default:
			if r.Intn(8) == 0 {
				return nil
			}
			return C(float64(r.Intn(7) - 3))
		}
	}
	switch r.Intn(5) {
	case 0, 1, 2:
		ops := []BinOp{Add, Sub, Mul, Div, Mod, Min, Max, Lt, Le, Gt, Ge, Eq, Ne, And, Or}
		return Bin{Op: ops[r.Intn(len(ops))], A: genScalar(r, depth-1), B: genScalar(r, depth-1)}
	case 3:
		ops := []UnOp{Neg, Abs, Sqrt, Not, Floor}
		return Un{Op: ops[r.Intn(len(ops))], A: genScalar(r, depth-1)}
	default:
		return SelE(genScalar(r, depth-1), genScalar(r, depth-1), genScalar(r, depth-1))
	}
}

// checkEvalScalar evaluates seed's expression with EvalScalar and with the
// interpreter-backed evalScalarInterp, fails t unless the value bits and
// error texts agree, and returns the error text ("" on success).
func checkEvalScalar(t *testing.T, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	vals := []float64{0, 1, -1, 2, 0.5, 7, math.NaN()}
	pick := func() float64 { return vals[r.Intn(len(vals))] }
	params := map[string]float64{"n": pick(), "a": pick(), "b": pick()}
	ivs := map[string]float64{"i": pick(), "j": pick()}
	if r.Intn(8) == 0 {
		params = nil
	}
	if r.Intn(8) == 0 {
		ivs = nil
	}
	e := genScalar(r, 1+r.Intn(5))
	got, errGot := EvalScalar(e, params, ivs)
	want, errWant := evalScalarInterp(e, params, ivs)
	if errText(errGot) != errText(errWant) {
		t.Fatalf("seed %d: %v: error %q, interpreter %q", seed, e, errText(errGot), errText(errWant))
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("seed %d: %v = %v, interpreter %v", seed, e, got, want)
	}
	return errText(errGot)
}

// TestEvalScalarCorpus sweeps a fixed seed range on every test run and
// requires that it reaches a value and every error EvalScalar reports.
func TestEvalScalarCorpus(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 2000; seed++ {
		text := checkEvalScalar(t, seed)
		for _, kind := range []string{"unknown parameter", "outside its loop", "undefined local",
			"undeclared object", "division by zero", "unknown expression"} {
			if strings.Contains(text, kind) {
				seen[kind] = true
			}
		}
		if text == "" {
			seen["value"] = true
		}
	}
	if len(seen) != 7 {
		t.Errorf("the corpus reached only %v", seen)
	}
}

// FuzzEvalScalar is the open-ended variant: go test -fuzz=FuzzEvalScalar
// explores seeds beyond the fixed corpus.
func FuzzEvalScalar(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEvalScalar(t, seed)
	})
}
