package ir

import (
	"fmt"
	"strings"
)

// Format renders a kernel as readable pseudo-C. The text is the kernel's
// canonical form: artifact.Key, ProgramKey and serve's ResultKey hash it,
// distda-inspect -src prints it, and Parse reads it back. Changing the
// output changes every cache key, so it needs a format-version bump.
func Format(k *Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s(", k.Name)
	for i, p := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p)
	}
	b.WriteString(")\n")
	for _, o := range k.Objects {
		fmt.Fprintf(&b, "  object %s[%d] (%dB elems)\n", o.Name, o.Len, o.ElemBytes)
	}
	formatStmts(&b, k.Body, 1)
	return b.String()
}

func formatStmts(b *strings.Builder, ss []Stmt, depth int) {
	pad := strings.Repeat("  ", depth)
	for _, s := range ss {
		switch x := s.(type) {
		case Let:
			fmt.Fprintf(b, "%s%s = %s\n", pad, x.Name, x.E)
		case Store:
			fmt.Fprintf(b, "%s%s[%s] = %s\n", pad, x.Obj, x.Idx, x.Val)
		case If:
			fmt.Fprintf(b, "%sif %s {\n", pad, x.Cond)
			formatStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", pad)
				formatStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", pad)
		case *For:
			kw := "for"
			if x.Parallel {
				kw = "parfor"
			}
			fmt.Fprintf(b, "%s%s %s = %s .. %s step %s {\n", pad, kw, x.IV, x.Lo, x.Hi, x.Step)
			formatStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", pad)
		default:
			fmt.Fprintf(b, "%s%v\n", pad, s)
		}
	}
}

// exprString renders an expression through one builder, so the cost is
// linear in the text however deeply the expression nests.
func exprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case Load:
		b.WriteString(x.Obj)
		b.WriteByte('[')
		writeExpr(b, x.Idx)
		b.WriteByte(']')
	case Bin:
		b.WriteByte('(')
		writeExpr(b, x.A)
		b.WriteString(" " + x.Op.String() + " ")
		writeExpr(b, x.B)
		b.WriteByte(')')
	case Un:
		b.WriteString(x.Op.String() + "(")
		writeExpr(b, x.A)
		b.WriteByte(')')
	case Sel:
		b.WriteString("sel(")
		writeExpr(b, x.Cond)
		b.WriteString(", ")
		writeExpr(b, x.T)
		b.WriteString(", ")
		writeExpr(b, x.F)
		b.WriteByte(')')
	default: // leaves, whose String methods do not recurse
		fmt.Fprintf(b, "%s", e)
	}
}
