package ir

import (
	"errors"
	"math"
)

// ErrDivideByZero is returned by ApplyBin for Div/Mod with a zero divisor.
var ErrDivideByZero = errors.New("ir: division by zero")

// ApplyBin evaluates a binary operator on concrete values. It is the single
// definition of operator semantics shared by the bytecode VM, the scalar
// evaluator (EvalScalar), the tree-walk reference interpreter in this
// package's tests and the accelerator execution models.
func ApplyBin(op BinOp, a, b float64) (float64, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case Mul:
		return a * b, nil
	case Div:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a / b, nil
	case Mod:
		if int64(b) == 0 {
			return 0, ErrDivideByZero
		}
		return float64(int64(a) % int64(b)), nil
	case Min:
		return math.Min(a, b), nil
	case Max:
		return math.Max(a, b), nil
	case Lt:
		return b2f(a < b), nil
	case Le:
		return b2f(a <= b), nil
	case Gt:
		return b2f(a > b), nil
	case Ge:
		return b2f(a >= b), nil
	case Eq:
		return b2f(a == b), nil
	case Ne:
		return b2f(a != b), nil
	case And:
		return b2f(a != 0 && b != 0), nil
	case Or:
		return b2f(a != 0 || b != 0), nil
	default:
		return 0, errors.New("ir: unknown binary operator")
	}
}

// ApplyUn evaluates a unary operator on a concrete value.
func ApplyUn(op UnOp, a float64) float64 {
	switch op {
	case Neg:
		return -a
	case Abs:
		return math.Abs(a)
	case Sqrt:
		return math.Sqrt(a)
	case Not:
		return b2f(a == 0)
	case Floor:
		return math.Floor(a)
	default:
		return 0
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
