package microcode

import (
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
