package ir

// Parse is the inverse of Format: it reads the kernel text Format emits
// (the pseudo-C distda-inspect -src prints and distda-serve accepts as a
// custom kernel). The grammar is exactly Format's output language:
//
//	kernel name(p1, p2)
//	  object a[64] (8B elems)
//	  acc = 0
//	  for i = 0 .. $n step 1 {
//	    acc = (%acc add a[i])
//	    if (i lt $n) { out[i] = %acc } else { out[i] = 0 }
//	  }
//
// Expressions are fully parenthesized binary forms `(a add b)`, unary
// calls `neg(x)`, predicated selects `sel(c, t, f)`, loads `obj[idx]`,
// parameters `$p`, locals `%v`, bare induction variables, and numeric
// literals in Go %g form. `parfor` marks a parallel loop. Whitespace and
// indentation are insignificant; identifiers may contain '-' after the
// first character.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse parses kernel source in the Format dialect and validates the
// result. For every valid kernel k, Parse(Format(k)) formats back to
// exactly Format(k). Syntax errors read "ir: kernel source line N: ...";
// a kernel that parses but is invalid returns Validate's error.
func Parse(src string) (*Kernel, error) {
	p := &parser{toks: lex(src)}
	k := p.kernel()
	if p.err != nil {
		return nil, p.err
	}
	if err := Validate(k); err != nil {
		return nil, err
	}
	return k, nil
}

func syntaxErr(line int, format string, args ...any) error {
	return fmt.Errorf("ir: kernel source line %d: "+format, append([]any{line}, args...)...)
}

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokParam // $name; text excludes the '$'
	tokLocal // %name; text excludes the '%'
	tokPunct // one of ( ) [ ] { } , = and ".."
)

type token struct {
	kind tokKind
	text string
	line int
	err  error // set on the final tokEOF when lexing stopped at bad input
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokParam:
		return "$" + t.text
	case tokLocal:
		return "%" + t.text
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdent(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '-'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digitAt reports whether src[i] exists and is a digit.
func digitAt(src string, i int) bool { return i < len(src) && isDigit(src[i]) }

// skip advances i past every byte of src that satisfies ok.
func skip(src string, i int, ok func(byte) bool) int {
	for i < len(src) && ok(src[i]) {
		i++
	}
	return i
}

// lex scans the whole source into tokens ending in tokEOF. At the first
// malformed token it stops, and the final tokEOF carries the error, so the
// parser reports it only if parsing gets that far.
func lex(src string) []token {
	var toks []token
	line, i := 1, 0
	fail := func(format string, args ...any) []token {
		return append(toks, token{kind: tokEOF, line: line, err: syntaxErr(line, format, args...)})
	}
	for {
		for ; i < len(src) && strings.IndexByte(" \t\r\n", src[i]) >= 0; i++ {
			if src[i] == '\n' {
				line++
			}
		}
		if i == len(src) {
			return append(toks, token{kind: tokEOF, line: line})
		}
		start, c := i, src[i]
		kind := tokPunct
		switch {
		case isIdentStart(c):
			kind, i = tokIdent, skip(src, i, isIdent)
		case c == '$' || c == '%':
			kind, start, i = tokParam, i+1, skip(src, i+1, isIdent)
			if c == '%' {
				kind = tokLocal
			}
			if i == start {
				return fail("%q without a name", string(c))
			}
		case isDigit(c) || c == '-' && (digitAt(src, i+1) || strings.HasPrefix(src[i+1:], ".")),
			c == '.' && digitAt(src, i+1):
			kind, i = tokNumber, scanNumber(src, i)
			if _, err := strconv.ParseFloat(src[start:i], 64); err != nil {
				return fail("bad number %q", src[start:i])
			}
		case strings.HasPrefix(src[i:], ".."):
			i += 2
		case c == '.':
			return fail("stray '.'")
		case strings.IndexByte("()[]{},=", c) >= 0:
			i++
		default:
			return fail("unexpected character %q", string(c))
		}
		toks = append(toks, token{kind: kind, text: src[start:i], line: line})
	}
}

// scanNumber returns the end of the Go %g-style literal at src[i]:
// [-]digits[.digits][e[+-]digits]. A '.' is consumed only when followed
// by a digit, so "0 .. 10" lexes as number, "..", number.
func scanNumber(src string, i int) int {
	if src[i] == '-' {
		i++
	}
	i = skip(src, i, isDigit)
	if i < len(src) && src[i] == '.' && digitAt(src, i+1) {
		i = skip(src, i+1, isDigit)
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if digitAt(src, j) {
			i = skip(src, j, isDigit)
		}
	}
	return i
}

// --- parser ---

// parser is a recursive-descent parser over the token slice. The first
// error is recorded and the cursor jumps to the final tokEOF, so every
// production unwinds on its own: loops stop at EOF, expectations fail
// silently, and the partial kernel is discarded.
type parser struct {
	toks []token
	pos  int
	err  error
}

func (p *parser) fail(line int, format string, args ...any) {
	if p.err == nil {
		p.err = syntaxErr(line, format, args...)
	}
	p.pos = len(p.toks) - 1
}

func (p *parser) peek() token {
	t := p.toks[p.pos]
	if p.err == nil {
		p.err = t.err
	}
	return t
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// accept consumes the next token if it is the keyword or punctuation text.
func (p *parser) accept(text string) bool {
	t := p.peek()
	if t.text != text || (t.kind != tokIdent && t.kind != tokPunct) {
		return false
	}
	p.pos++
	return true
}

func (p *parser) expect(text string) {
	if t := p.peek(); !p.accept(text) {
		p.fail(t.line, "expected %q, got %s", text, t)
	}
}

func (p *parser) ident() string {
	t := p.next()
	if t.kind != tokIdent {
		p.fail(t.line, "expected identifier, got %s", t)
	}
	return t.text
}

func (p *parser) intLit() int {
	t := p.next()
	n, err := strconv.Atoi(t.text)
	if t.kind != tokNumber || err != nil {
		p.fail(t.line, "expected integer, got %s", t)
	}
	return n
}

func (p *parser) kernel() *Kernel {
	p.expect("kernel")
	k := &Kernel{Name: p.ident()}
	p.expect("(")
	for p.err == nil && !p.accept(")") {
		k.Params = append(k.Params, p.ident())
		p.accept(",")
	}
	// Object declarations: object name[len] (NB elems). The element width
	// lexes as number then the bare identifier "B".
	for p.accept("object") {
		o := ObjDecl{Name: p.ident()}
		p.expect("[")
		o.Len = p.intLit()
		p.expect("]")
		p.expect("(")
		o.ElemBytes = p.intLit()
		p.expect("B")
		p.expect("elems")
		p.expect(")")
		k.Objects = append(k.Objects, o)
	}
	k.Body = p.stmts(false)
	return k
}

// stmts parses statements until EOF (top level) or a closing '}' (inside a
// block; the '}' is consumed).
func (p *parser) stmts(inBlock bool) []Stmt {
	var out []Stmt
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			if inBlock {
				p.fail(t.line, "unexpected end of input inside block")
			}
			return out
		case p.accept("}"):
			if !inBlock {
				p.fail(t.line, "unexpected '}'")
			}
			return out
		}
		out = append(out, p.stmt())
	}
}

func (p *parser) stmt() Stmt {
	t := p.next()
	if t.kind != tokIdent {
		p.fail(t.line, "expected statement, got %s", t)
		return nil
	}
	switch t.text {
	case "if":
		s := If{Cond: p.expr()}
		p.expect("{")
		s.Then = p.stmts(true)
		// "else" opens an else branch only before "{". Otherwise it names
		// the next statement's target: Format drops an empty else branch,
		// so "} else {\n}\n else = 1" must reformat to text that reparses.
		if tok := p.peek(); tok.kind == tokIdent && tok.text == "else" && p.toks[p.pos+1].text == "{" {
			p.pos += 2
			s.Else = p.stmts(true)
		}
		return s
	case "for", "parfor":
		f := &For{IV: p.ident(), Parallel: t.text == "parfor"}
		p.expect("=")
		f.Lo = p.expr()
		p.expect("..")
		f.Hi = p.expr()
		p.expect("step")
		f.Step = p.expr()
		p.expect("{")
		f.Body = p.stmts(true)
		return f
	}
	// Let (`name = expr`) or Store (`name[idx] = expr`).
	if p.accept("[") {
		s := Store{Obj: t.text, Idx: p.expr()}
		p.expect("]")
		p.expect("=")
		s.Val = p.expr()
		return s
	}
	p.expect("=")
	return Let{Name: t.text, E: p.expr()}
}

func (p *parser) expr() Expr {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, _ := strconv.ParseFloat(t.text, 64) // lex checked the syntax
		return Const{V: v}
	case tokParam:
		return Param{Name: t.text}
	case tokLocal:
		return Local{Name: t.text}
	case tokIdent:
		return p.identExpr(t.text)
	}
	if t.kind != tokPunct || t.text != "(" {
		p.fail(t.line, "expected expression, got %s", t)
		return nil
	}
	// Parenthesized binary form: (a op b).
	e := Bin{A: p.expr()}
	opTok := p.next()
	op := slices.Index(binOpNames[:], opTok.text)
	if opTok.kind != tokIdent || op < 0 {
		p.fail(opTok.line, "unknown binary operator %s", opTok)
	}
	e.Op, e.B = BinOp(op), p.expr()
	p.expect(")")
	return e
}

// identExpr parses an expression that starts with the identifier name: a
// select or unary call when "(" follows, a load when "[" follows, and
// otherwise a bare induction variable.
func (p *parser) identExpr(name string) Expr {
	un := slices.Index(unOpNames[:], name)
	switch {
	case name == "sel" && p.accept("("):
		s := Sel{Cond: p.expr()}
		p.expect(",")
		s.T = p.expr()
		p.expect(",")
		s.F = p.expr()
		p.expect(")")
		return s
	case un >= 0 && p.accept("("):
		e := Un{Op: UnOp(un), A: p.expr()}
		p.expect(")")
		return e
	case p.accept("["):
		e := Load{Obj: name, Idx: p.expr()}
		p.expect("]")
		return e
	}
	return IV{Name: name}
}
