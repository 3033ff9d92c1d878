package ir

import (
	"fmt"
	"sort"
)

// Affine is the scalar-evolution form of an index expression with respect to
// a set of induction variables:
//
//	idx = Offset + Σ Coeffs[iv]·iv
//
// Offset and all coefficients are expressions free of those IVs and free of
// loads, so they are evaluable at offload-configuration time (outer IVs and
// parameters are runtime constants then). This is the analog of the LLVM
// SCEV add-recurrences the paper's compiler leans on (§V).
type Affine struct {
	Coeffs map[string]Expr
	Offset Expr
}

// IVs returns the induction variables with non-zero coefficients, sorted.
func (a Affine) IVs() []string {
	out := make([]string, 0, len(a.Coeffs))
	for iv := range a.Coeffs {
		out = append(out, iv)
	}
	sort.Strings(out)
	return out
}

// String renders the affine form for diagnostics.
func (a Affine) String() string {
	s := a.Offset.String()
	for _, iv := range a.IVs() {
		s += fmt.Sprintf(" + (%s)*%s", a.Coeffs[iv], iv)
	}
	return s
}

// AnalyzeAffine rewrites e into affine form with respect to the IVs in
// inner. defs resolves local names to their (loop-invariant) defining
// expressions; locals not present in defs make the expression non-affine.
// The second result reports success. IVs not in inner are treated as
// symbolic constants (they are fixed when the innermost offload is
// configured).
func AnalyzeAffine(e Expr, inner map[string]bool, defs map[string]Expr) (Affine, bool) {
	a, ok := affine(e, inner, defs, 0)
	return a, ok
}

// maxAffineDepth bounds recursion through local definitions so cyclic defs
// cannot loop forever.
const maxAffineDepth = 64

func affine(e Expr, inner map[string]bool, defs map[string]Expr, depth int) (Affine, bool) {
	if depth > maxAffineDepth {
		return Affine{}, false
	}
	switch x := e.(type) {
	case Const, Param:
		return Affine{Offset: e}, true
	case IV:
		if inner[x.Name] {
			return Affine{Coeffs: map[string]Expr{x.Name: C(1)}, Offset: C(0)}, true
		}
		return Affine{Offset: e}, true
	case Local:
		def, ok := defs[x.Name]
		if !ok {
			return Affine{}, false
		}
		return affine(def, inner, defs, depth+1)
	case Load:
		return Affine{}, false
	case Un:
		a, ok := affine(x.A, inner, defs, depth+1)
		if !ok {
			return Affine{}, false
		}
		if x.Op == Neg {
			return scaleAffine(a, C(-1)), true
		}
		// Other unaries are affine only when IV-free.
		if len(a.Coeffs) == 0 {
			return Affine{Offset: Un{Op: x.Op, A: a.Offset}}, true
		}
		return Affine{}, false
	case Bin:
		a, okA := affine(x.A, inner, defs, depth+1)
		b, okB := affine(x.B, inner, defs, depth+1)
		if !okA || !okB {
			return Affine{}, false
		}
		switch x.Op {
		case Add:
			return addAffine(a, b, 1), true
		case Sub:
			return addAffine(a, b, -1), true
		case Mul:
			if len(a.Coeffs) == 0 {
				return scaleAffine(b, a.Offset), true
			}
			if len(b.Coeffs) == 0 {
				return scaleAffine(a, b.Offset), true
			}
			return Affine{}, false // iv*iv: not affine
		default:
			// Div/Mod/Min/...: affine only when both sides are IV-free.
			if len(a.Coeffs) == 0 && len(b.Coeffs) == 0 {
				return Affine{Offset: Bin{Op: x.Op, A: a.Offset, B: b.Offset}}, true
			}
			return Affine{}, false
		}
	case Sel:
		// A select is IV-invariant only when all three parts are.
		for _, part := range []Expr{x.Cond, x.T, x.F} {
			a, ok := affine(part, inner, defs, depth+1)
			if !ok || len(a.Coeffs) != 0 {
				return Affine{}, false
			}
		}
		return Affine{Offset: e}, true
	default:
		return Affine{}, false
	}
}

func addAffine(a, b Affine, sign float64) Affine {
	out := Affine{Coeffs: map[string]Expr{}, Offset: simplifyAdd(a.Offset, scale(b.Offset, sign))}
	for iv, c := range a.Coeffs {
		out.Coeffs[iv] = c
	}
	for iv, c := range b.Coeffs {
		sc := scale(c, sign)
		if prev, ok := out.Coeffs[iv]; ok {
			out.Coeffs[iv] = simplifyAdd(prev, sc)
		} else {
			out.Coeffs[iv] = sc
		}
	}
	for iv, c := range out.Coeffs {
		if k, ok := c.(Const); ok && k.V == 0 {
			delete(out.Coeffs, iv)
		}
	}
	if len(out.Coeffs) == 0 {
		out.Coeffs = nil
	}
	return out
}

func scaleAffine(a Affine, factor Expr) Affine {
	out := Affine{Offset: simplifyMul(a.Offset, factor)}
	if len(a.Coeffs) > 0 {
		out.Coeffs = map[string]Expr{}
		for iv, c := range a.Coeffs {
			out.Coeffs[iv] = simplifyMul(c, factor)
		}
	}
	return out
}

func scale(e Expr, sign float64) Expr {
	if sign == 1 {
		return e
	}
	return simplifyMul(e, C(sign))
}

// simplifyAdd folds constants in a+b.
func simplifyAdd(a, b Expr) Expr {
	ca, aConst := a.(Const)
	cb, bConst := b.(Const)
	switch {
	case aConst && bConst:
		return C(ca.V + cb.V)
	case aConst && ca.V == 0:
		return b
	case bConst && cb.V == 0:
		return a
	default:
		return Bin{Op: Add, A: a, B: b}
	}
}

// simplifyMul folds constants in a*b.
func simplifyMul(a, b Expr) Expr {
	ca, aConst := a.(Const)
	cb, bConst := b.(Const)
	switch {
	case aConst && bConst:
		return C(ca.V * cb.V)
	case aConst && ca.V == 1:
		return b
	case bConst && cb.V == 1:
		return a
	case aConst && ca.V == 0, bConst && cb.V == 0:
		return C(0)
	default:
		return Bin{Op: Mul, A: a, B: b}
	}
}

// EvalScalar evaluates an expression containing only constants, parameters
// and induction variables with the supplied bindings. It rejects loads and
// locals: it exists to evaluate stream configuration values (start, stride)
// at offload time. A Bin evaluates A then B and a Sel its condition and
// both arms, so an expression with several faults reports the first.
func EvalScalar(e Expr, params, ivs map[string]float64) (float64, error) {
	switch x := e.(type) {
	case Const:
		return x.V, nil
	case Param:
		if v, ok := params[x.Name]; ok {
			return v, nil
		}
		return 0, scalarError("read of unknown parameter %q", x.Name)
	case IV:
		if v, ok := ivs[x.Name]; ok {
			return v, nil
		}
		return 0, scalarError("read of induction variable %q outside its loop", x.Name)
	case Local:
		return 0, scalarError("read of undefined local %q", x.Name)
	case Load:
		return 0, scalarError("access to undeclared object %q", x.Obj)
	case Bin:
		a, err := EvalScalar(x.A, params, ivs)
		if err != nil {
			return 0, err
		}
		b, err := EvalScalar(x.B, params, ivs)
		if err != nil {
			return 0, err
		}
		v, err := ApplyBin(x.Op, a, b)
		if err != nil {
			return 0, scalarError("%v", err)
		}
		return v, nil
	case Un:
		a, err := EvalScalar(x.A, params, ivs)
		if err != nil {
			return 0, err
		}
		return ApplyUn(x.Op, a), nil
	case Sel:
		var arms [3]float64
		for i, arm := range [3]Expr{x.Cond, x.T, x.F} {
			v, err := EvalScalar(arm, params, ivs)
			if err != nil {
				return 0, err
			}
			arms[i] = v
		}
		if arms[0] != 0 {
			return arms[1], nil
		}
		return arms[2], nil
	default:
		return 0, scalarError("unknown expression %T", e)
	}
}

func scalarError(format string, args ...any) error {
	return fmt.Errorf(`ir: kernel "EvalScalar": `+format, args...)
}
