package microcode

import (
	"errors"
	"strings"
	"testing"

	"distda/internal/ir"
)

func TestOpStringsDisassemble(t *testing.T) {
	p := Program{
		{Code: Consume, Dst: 1, Access: 0, Pred: -1},
		{Code: ALU, Dst: 2, A: 1, B: 1, Bin: ir.Add, Pred: -1},
		{Code: ALUI, Dst: 3, A: 2, Bin: ir.Mul, Imm: 4, Pred: -1},
		{Code: Un, Dst: 4, A: 3, UnOp: ir.Sqrt, Pred: -1},
		{Code: SelOp, Dst: 5, A: 1, B: 2, C: 4, Pred: -1},
		{Code: MovI, Dst: 6, Imm: 7, Pred: -1},
		{Code: Mov, Dst: 7, A: 6, Pred: -1},
		{Code: Iter, Dst: 8, Pred: -1},
		{Code: LoadObj, Dst: 9, A: 8, Obj: "A", Pred: -1},
		{Code: StoreObj, A: 8, B: 9, Obj: "B", Pred: 4},
		{Code: Produce, A: 9, Access: 1, Pred: -1},
		{Code: Nop, Pred: -1},
	}
	text := p.String()
	for _, want := range []string{"consume", "add", "mul", "sqrt", "iter", "A[r8]", "B[r8] = r9", "[r4]", "produce"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
	if err := p.Validate(2); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if p.Bytes() != len(p)*OpBytes {
		t.Fatal("Bytes")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		op   Op
	}{
		{"consume bad access", Op{Code: Consume, Dst: 1, Access: 5, Pred: -1}},
		{"consume bad dst", Op{Code: Consume, Dst: -1, Access: 0, Pred: -1}},
		{"produce bad access", Op{Code: Produce, A: 1, Access: -1, Pred: -1}},
		{"loadobj no object", Op{Code: LoadObj, Dst: 1, A: 1, Pred: -1}},
		{"storeobj no object", Op{Code: StoreObj, A: 1, B: 1, Pred: -1}},
		{"alu reg range", Op{Code: ALU, Dst: NumRegs, A: 0, B: 0, Pred: -1}},
		{"sel cond range", Op{Code: SelOp, Dst: 1, A: 0, B: 0, C: NumRegs, Pred: -1}},
		{"pred range", Op{Code: Nop, Pred: NumRegs}},
		{"unknown opcode", Op{Code: Code(99), Pred: -1}},
	}
	for _, c := range cases {
		p := Program{c.op}
		if err := p.Validate(2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOpClass(t *testing.T) {
	if (&Op{Code: ALU, Bin: ir.Mul}).Class() != ir.ClassComplex {
		t.Fatal("mul class")
	}
	if (&Op{Code: Un, UnOp: ir.Sqrt}).Class() != ir.ClassFloat {
		t.Fatal("sqrt class")
	}
	if (&Op{Code: Consume}).Class() != ir.ClassInt {
		t.Fatal("consume class")
	}
}

func TestNewOpHasNoPred(t *testing.T) {
	if NewOp(Nop).Pred != -1 {
		t.Fatal("NewOp pred")
	}
}

// TestExecMatchesIR holds the register evaluator to the IR's operator
// semantics on every binary and unary operator, register and immediate
// forms alike, and checks the register-only moves, selects and Iter.
func TestExecMatchesIR(t *testing.T) {
	vals := []float64{-3, -0.5, 0, 1, 2.5, 7}
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	for bin := ir.Add; bin <= ir.Or; bin++ {
		for _, a := range vals {
			for _, b := range vals {
				want, wantErr := ir.ApplyBin(bin, a, b)
				for _, code := range []Code{ALU, ALUI} {
					regs := [NumRegs]float64{1: a, 2: b, 3: 99}
					op := Op{Code: code, Dst: 3, A: 1, B: 2, Imm: b, Bin: bin, Pred: -1}
					err := op.Exec(&regs, 0)
					if err != wantErr {
						t.Fatalf("%s %g, %g: error %v, want %v", op, a, b, err, wantErr)
					}
					if err == nil && !same(regs[3], want) {
						t.Fatalf("%s %g, %g = %g, want %g", op, a, b, regs[3], want)
					}
					if err != nil && regs[3] != 99 {
						t.Fatalf("%s %g, %g: faulting op wrote r3 = %g", op, a, b, regs[3])
					}
				}
			}
		}
	}
	for un := ir.Neg; un <= ir.Floor; un++ {
		for _, a := range vals {
			regs := [NumRegs]float64{1: a}
			op := Op{Code: Un, Dst: 3, A: 1, UnOp: un, Pred: -1}
			if err := op.Exec(&regs, 0); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if want := ir.ApplyUn(un, a); !same(regs[3], want) {
				t.Fatalf("%s %g = %g, want %g", op, a, regs[3], want)
			}
		}
	}
	div := Op{Code: ALUI, Dst: 3, A: 1, Bin: ir.Div, Imm: 0, Pred: -1}
	regs := [NumRegs]float64{1: 4}
	if err := div.Exec(&regs, 0); !errors.Is(err, ir.ErrDivideByZero) {
		t.Fatalf("divide by zero: error %v, want %v", err, ir.ErrDivideByZero)
	}

	regs = [NumRegs]float64{1: 5, 2: 6, 3: 0}
	for _, c := range []struct {
		op   Op
		want float64
	}{
		{Op{Code: SelOp, Dst: 4, A: 1, B: 2, C: 3}, 6},
		{Op{Code: SelOp, Dst: 4, A: 1, B: 2, C: 1}, 5},
		{Op{Code: MovI, Dst: 4, Imm: -2}, -2},
		{Op{Code: Mov, Dst: 4, A: 2}, 6},
		{Op{Code: Iter, Dst: 4}, 41},
	} {
		r := regs
		if err := c.op.Exec(&r, 41); err != nil || r[4] != c.want {
			t.Fatalf("%s: r4 = %g, %v; want %g", c.op, r[4], err, c.want)
		}
	}
	r := regs
	if err := (&Op{Code: Nop}).Exec(&r, 41); err != nil || r != regs {
		t.Fatalf("nop changed registers or failed: %v", err)
	}
	for _, code := range []Code{Consume, Produce, LoadObj, StoreObj, Code(99)} {
		if err := (&Op{Code: code}).Exec(&r, 0); err == nil {
			t.Fatalf("Exec accepted %s", code)
		}
	}
}

// TestOperandRoles checks Reads and Writes on every Code.
func TestOperandRoles(t *testing.T) {
	bit := func(rs ...int) (m uint64) {
		for _, r := range rs {
			m |= 1 << uint(r)
		}
		return m
	}
	for _, c := range []struct {
		code   Code
		reads  uint64
		writes int
	}{
		{Nop, 0, -1}, {Consume, 0, 1}, {Produce, bit(2), -1},
		{LoadObj, bit(2), 1}, {StoreObj, bit(2, 3), -1},
		{ALU, bit(2, 3), 1}, {ALUI, bit(2), 1}, {Un, bit(2), 1},
		{SelOp, bit(2, 3, 4), 1}, {MovI, 0, 1}, {Mov, bit(2), 1}, {Iter, 0, 1},
	} {
		op := Op{Code: c.code, Dst: 1, A: 2, B: 3, C: 4, Pred: -1}
		if got := op.Reads(); got != c.reads {
			t.Errorf("%s reads %b, want %b", c.code, got, c.reads)
		}
		if got := op.Writes(); got != c.writes {
			t.Errorf("%s writes r%d, want r%d", c.code, got, c.writes)
		}
		op.Pred = 9
		if got := op.Reads(); got != c.reads|bit(9) {
			t.Errorf("predicated %s reads %b, want %b", c.code, got, c.reads|bit(9))
		}
	}
}
