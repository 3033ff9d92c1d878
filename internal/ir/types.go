// Package ir defines the kernel intermediate representation consumed by the
// Dist-DA compiler, and the bytecode VM (NewProgram, Program.Run) that runs
// a kernel outside the simulator: the reference output that validates
// simulated executions, Table VI's dynamic counts and the host timing
// model. This package's tests hold the VM to a tree-walk reference
// interpreter.
//
// A Kernel is an imperative loop nest over named memory objects. Index
// expressions are ordinary expressions; the compiler classifies them as
// streaming (affine in induction variables) or irregular (containing loads)
// exactly the way the paper's LLVM scalar-evolution pass would.
package ir

import "fmt"

// BinOp enumerates binary operators. Comparison operators yield 1.0 or 0.0.
type BinOp int

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Min
	Max
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And // logical: nonzero/nonzero
	Or
)

var binOpNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	Min: "min", Max: "max", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Eq: "eq", Ne: "ne", And: "and", Or: "or",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// Class reports the functional-unit class an operator needs. The CGRA mapper
// and the area model distinguish integer, complex (mul/div) and floating
// point resources.
type OpClass int

const (
	ClassInt     OpClass = iota // add/sub/compare/logic
	ClassComplex                // mul, div, mod
	ClassFloat                  // sqrt and FP-marked arithmetic
)

// Class returns the functional-unit class of a binary operator.
func (op BinOp) Class() OpClass {
	switch op {
	case Mul, Div, Mod:
		return ClassComplex
	default:
		return ClassInt
	}
}

// UnOp enumerates unary operators.
type UnOp int

const (
	Neg UnOp = iota
	Abs
	Sqrt
	Not
	Floor
)

var unOpNames = [...]string{Neg: "neg", Abs: "abs", Sqrt: "sqrt", Not: "not", Floor: "floor"}

func (op UnOp) String() string {
	if int(op) < len(unOpNames) {
		return unOpNames[op]
	}
	return fmt.Sprintf("unop(%d)", int(op))
}

// Class returns the functional-unit class of a unary operator.
func (op UnOp) Class() OpClass {
	if op == Sqrt {
		return ClassFloat
	}
	return ClassInt
}

// Expr is an expression tree node. All values are float64; integer index
// arithmetic is exact for magnitudes below 2^53.
type Expr interface {
	isExpr()
	String() string
}

// Const is a literal value.
type Const struct{ V float64 }

// Param reads a scalar kernel parameter (loop bound, matrix width, ...).
// Parameters are fixed for a kernel invocation and reach accelerators via
// cp_set_rf.
type Param struct{ Name string }

// IV reads a loop induction variable by name.
type IV struct{ Name string }

// Local reads a mutable local variable introduced by Let.
type Local struct{ Name string }

// Load reads element Idx of memory object Obj.
type Load struct {
	Obj string
	Idx Expr
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Un applies a unary operator.
type Un struct {
	Op UnOp
	A  Expr
}

// Sel is a predicated select: Cond != 0 ? T : F. Both arms are evaluated;
// this mirrors the compiler's if-conversion (§V-A-2, "control-dependencies
// in the DFG are converted to data dependencies by predication").
type Sel struct {
	Cond, T, F Expr
}

func (Const) isExpr() {}
func (Param) isExpr() {}
func (IV) isExpr()    {}
func (Local) isExpr() {}
func (Load) isExpr()  {}
func (Bin) isExpr()   {}
func (Un) isExpr()    {}
func (Sel) isExpr()   {}

func (e Const) String() string { return fmt.Sprintf("%g", e.V) }
func (e Param) String() string { return "$" + e.Name }
func (e IV) String() string    { return e.Name }
func (e Local) String() string { return "%" + e.Name }
func (e Load) String() string  { return exprString(e) }
func (e Bin) String() string   { return exprString(e) }
func (e Un) String() string    { return exprString(e) }
func (e Sel) String() string   { return exprString(e) }

// Stmt is a statement node.
type Stmt interface {
	isStmt()
	String() string
}

// Let binds or rebinds a local variable. Rebinding the same name inside a
// loop creates a loop-carried dependence (reduction or pointer chase).
type Let struct {
	Name string
	E    Expr
}

// Store writes Val to element Idx of object Obj.
type Store struct {
	Obj string
	Idx Expr
	Val Expr
}

// If executes Then when Cond != 0, otherwise Else. The compiler predicates
// offloadable Ifs into Sel chains.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// For is a counted loop: for IV := Lo; IV < Hi; IV += Step.
// Parallel marks a loop whose iterations carry no cross-iteration
// dependences; the multithreading case study (§VI-D) schedules such
// iterations across threads. The flag corresponds to the paper's programmer
// annotation and is never inferred.
type For struct {
	IV       string
	Lo, Hi   Expr
	Step     Expr
	Body     []Stmt
	Parallel bool
}

func (Let) isStmt()   {}
func (Store) isStmt() {}
func (If) isStmt()    {}
func (*For) isStmt()  {}

func (s Let) String() string   { return fmt.Sprintf("%%%s = %s", s.Name, s.E) }
func (s Store) String() string { return fmt.Sprintf("%s[%s] = %s", s.Obj, s.Idx, s.Val) }
func (s If) String() string {
	return fmt.Sprintf("if %s { %d stmts } else { %d stmts }", s.Cond, len(s.Then), len(s.Else))
}
func (s *For) String() string {
	return fmt.Sprintf("for %s = %s..%s step %s { %d stmts }", s.IV, s.Lo, s.Hi, s.Step, len(s.Body))
}

// ObjDecl declares a memory object (application data structure). Len is the
// element count and ElemBytes the element width used for traffic accounting.
type ObjDecl struct {
	Name      string
	Len       int
	ElemBytes int
}

// Bytes returns the object footprint in bytes.
func (o ObjDecl) Bytes() int { return o.Len * o.ElemBytes }

// Kernel is a complete offloadable program: scalar parameters, memory
// objects and a top-level statement list (typically one loop nest).
type Kernel struct {
	Name    string
	Params  []string
	Objects []ObjDecl
	Body    []Stmt
}

// Object returns the declaration of the named object.
func (k *Kernel) Object(name string) (ObjDecl, bool) {
	for _, o := range k.Objects {
		if o.Name == name {
			return o, true
		}
	}
	return ObjDecl{}, false
}

// HasParam reports whether the kernel declares the named parameter.
func (k *Kernel) HasParam(name string) bool {
	for _, p := range k.Params {
		if p == name {
			return true
		}
	}
	return false
}
