// Package microcode defines the 64-bit micro-operation ISA executed by the
// in-order accelerator cores. The compiler emits one micro-program per
// distributed accelerator definition (§V-A-6, "custom 64-bit microcodes
// generated by the compiler"); Table VI's insts(B) column is
// 8 bytes × program length.
package microcode

import (
	"fmt"
	"strings"

	"distda/internal/ir"
)

// NumRegs is the accelerator scalar register file size. Registers persist
// across iterations, carrying reductions and pointer-chase state; the host
// initializes and reads them with cp_set_rf / cp_load_rf.
const NumRegs = 32

// OpBytes is the encoded size of one micro-op.
const OpBytes = 8

// Code enumerates micro-op kinds.
type Code int

const (
	// Nop does nothing (predication filler).
	Nop Code = iota
	// Consume blocks until the access buffer yields a value: r[Dst] = consume(Access).
	Consume
	// Produce blocks until the access buffer has space: produce(Access, r[A]).
	Produce
	// LoadObj performs a random access read: r[Dst] = Obj[r[A]].
	LoadObj
	// StoreObj performs a random access write: Obj[r[A]] = r[B].
	StoreObj
	// ALU computes r[Dst] = BinOp(r[A], r[B]).
	ALU
	// ALUI computes r[Dst] = BinOp(r[A], Imm).
	ALUI
	// Un computes r[Dst] = UnOp(r[A]).
	Un
	// SelOp computes r[Dst] = r[C] != 0 ? r[A] : r[B].
	SelOp
	// MovI sets r[Dst] = Imm.
	MovI
	// Mov sets r[Dst] = r[A].
	Mov
	// Iter sets r[Dst] = current iteration index of the orchestrator.
	Iter
)

var codeNames = [...]string{
	Nop: "nop", Consume: "consume", Produce: "produce",
	LoadObj: "ld.obj", StoreObj: "st.obj",
	ALU: "alu", ALUI: "alui", Un: "un", SelOp: "sel",
	MovI: "movi", Mov: "mov", Iter: "iter",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", int(c))
}

// Op is one micro-operation. Pred, when >= 0, names a predicate register:
// the op retires as a nop when r[Pred] == 0 (if-conversion of offloaded
// control flow, §V-A-2).
type Op struct {
	Code    Code
	Dst     int
	A, B, C int
	Imm     float64
	Access  int    // access-id for Consume/Produce
	Obj     string // object name for LoadObj/StoreObj
	Bin     ir.BinOp
	UnOp    ir.UnOp
	Pred    int // predicate register, -1 for none
}

// NewOp returns an op with no predicate.
func NewOp(code Code) Op { return Op{Code: code, Pred: -1} }

func (o Op) String() string {
	var body string
	switch o.Code {
	case Nop:
		body = "nop"
	case Consume:
		body = fmt.Sprintf("r%d = consume(%%a%d)", o.Dst, o.Access)
	case Produce:
		body = fmt.Sprintf("produce(%%a%d, r%d)", o.Access, o.A)
	case LoadObj:
		body = fmt.Sprintf("r%d = %s[r%d]", o.Dst, o.Obj, o.A)
	case StoreObj:
		body = fmt.Sprintf("%s[r%d] = r%d", o.Obj, o.A, o.B)
	case ALU:
		body = fmt.Sprintf("r%d = %s r%d, r%d", o.Dst, o.Bin, o.A, o.B)
	case ALUI:
		body = fmt.Sprintf("r%d = %s r%d, %g", o.Dst, o.Bin, o.A, o.Imm)
	case Un:
		body = fmt.Sprintf("r%d = %s r%d", o.Dst, o.UnOp, o.A)
	case SelOp:
		body = fmt.Sprintf("r%d = r%d ? r%d : r%d", o.Dst, o.C, o.A, o.B)
	case MovI:
		body = fmt.Sprintf("r%d = %g", o.Dst, o.Imm)
	case Mov:
		body = fmt.Sprintf("r%d = r%d", o.Dst, o.A)
	case Iter:
		body = fmt.Sprintf("r%d = iter", o.Dst)
	default:
		body = o.Code.String()
	}
	if o.Pred >= 0 {
		return fmt.Sprintf("[r%d] %s", o.Pred, body)
	}
	return body
}

// Class returns the functional-unit class the op occupies. The receiver is
// a pointer: Op is large, and the backends classify every op they count.
func (o *Op) Class() ir.OpClass {
	switch o.Code {
	case ALU, ALUI:
		return o.Bin.Class()
	case Un:
		return o.UnOp.Class()
	default:
		return ir.ClassInt
	}
}

// Program is a per-iteration micro-program.
type Program []Op

// Bytes returns the encoded program size (Table VI insts(B)).
func (p Program) Bytes() int { return len(p) * OpBytes }

// String disassembles the program.
func (p Program) String() string {
	var b strings.Builder
	for i, op := range p {
		fmt.Fprintf(&b, "%3d: %s\n", i, op.String())
	}
	return b.String()
}

// Validate checks register indices, access references and predicate ranges.
// maxAccess is the number of access-ids declared by the surrounding
// accelerator definition.
func (p Program) Validate(maxAccess int) error {
	for i, op := range p {
		bad := func(what string) error {
			return fmt.Errorf("microcode: op %d (%s): invalid %s", i, op, what)
		}
		checkReg := func(r int) bool { return r >= 0 && r < NumRegs }
		if op.Pred >= NumRegs {
			return bad("predicate register")
		}
		switch op.Code {
		case Nop:
		case Consume:
			if !checkReg(op.Dst) {
				return bad("dst register")
			}
			if op.Access < 0 || op.Access >= maxAccess {
				return bad("access id")
			}
		case Produce:
			if !checkReg(op.A) {
				return bad("src register")
			}
			if op.Access < 0 || op.Access >= maxAccess {
				return bad("access id")
			}
		case LoadObj:
			if !checkReg(op.Dst) || !checkReg(op.A) {
				return bad("register")
			}
			if op.Obj == "" {
				return bad("object")
			}
		case StoreObj:
			if !checkReg(op.A) || !checkReg(op.B) {
				return bad("register")
			}
			if op.Obj == "" {
				return bad("object")
			}
		case ALU, SelOp:
			if !checkReg(op.Dst) || !checkReg(op.A) || !checkReg(op.B) {
				return bad("register")
			}
			if op.Code == SelOp && !checkReg(op.C) {
				return bad("condition register")
			}
		case ALUI, Un, Mov:
			if !checkReg(op.Dst) || !checkReg(op.A) {
				return bad("register")
			}
		case MovI, Iter:
			if !checkReg(op.Dst) {
				return bad("dst register")
			}
		default:
			return bad("opcode")
		}
	}
	return nil
}
