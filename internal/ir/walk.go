package ir

// WalkExpr calls fn for e and every sub-expression, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case Bin:
		WalkExpr(x.A, fn)
		WalkExpr(x.B, fn)
	case Un:
		WalkExpr(x.A, fn)
	case Sel:
		WalkExpr(x.Cond, fn)
		WalkExpr(x.T, fn)
		WalkExpr(x.F, fn)
	case Load:
		WalkExpr(x.Idx, fn)
	}
}

// WalkStmts calls stmtFn for every statement (pre-order, recursing into If
// arms and For bodies) and exprFn for every expression appearing in them.
// Either callback may be nil.
func WalkStmts(stmts []Stmt, stmtFn func(Stmt), exprFn func(Expr)) {
	we := func(e Expr) {
		if exprFn != nil {
			WalkExpr(e, exprFn)
		}
	}
	for _, s := range stmts {
		if stmtFn != nil {
			stmtFn(s)
		}
		switch x := s.(type) {
		case Let:
			we(x.E)
		case Store:
			we(x.Idx)
			we(x.Val)
		case If:
			we(x.Cond)
			WalkStmts(x.Then, stmtFn, exprFn)
			WalkStmts(x.Else, stmtFn, exprFn)
		case *For:
			we(x.Lo)
			we(x.Hi)
			we(x.Step)
			WalkStmts(x.Body, stmtFn, exprFn)
		}
	}
}

// Loops returns every For statement in the kernel, outermost first.
func Loops(stmts []Stmt) []*For {
	var out []*For
	WalkStmts(stmts, func(s Stmt) {
		if f, ok := s.(*For); ok {
			out = append(out, f)
		}
	}, nil)
	return out
}

// InnermostLoops returns loops that contain no nested For.
func InnermostLoops(stmts []Stmt) []*For {
	var out []*For
	for _, f := range Loops(stmts) {
		if len(Loops(f.Body)) == 0 {
			out = append(out, f)
		}
	}
	return out
}
