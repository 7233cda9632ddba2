package tinyc

// Recursive-descent parser.

type parser struct {
	toks []token
	pos  int
}

// parse lexes and parses src and checks the program (check.go); both
// backends generate code from its result.
func parse(src string) (*program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &program{}
	for !p.at(tEOF, "") {
		switch {
		case p.at(tKeyword, "var"):
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			prog.globals = append(prog.globals, g)
		case p.at(tKeyword, "func"):
			f, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			prog.funcs = append(prog.funcs, f)
		default:
			return nil, errf(p.cur().line, "expected var or func, got %q", p.curText())
		}
	}
	if err := check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) curText() string {
	t := p.cur()
	if t.kind == tNum {
		return "number"
	}
	if t.kind == tEOF {
		return "end of file"
	}
	return t.text
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[tokKind]string{tIdent: "identifier", tNum: "number"}[kind]
		}
		return t, errf(t.line, "expected %q, got %q", want, p.curText())
	}
	p.pos++
	return t, nil
}

func (p *parser) globalDecl() (globalDecl, error) {
	line := p.cur().line
	p.pos++ // var
	name, err := p.expect(tIdent, "")
	if err != nil {
		return globalDecl{}, err
	}
	size := 1
	if p.accept(tPunct, "[") {
		n, err := p.expect(tNum, "")
		if err != nil {
			return globalDecl{}, err
		}
		if n.num <= 0 || n.num > 1<<20 {
			return globalDecl{}, errf(n.line, "bad array size %d", n.num)
		}
		size = int(n.num)
		if _, err := p.expect(tPunct, "]"); err != nil {
			return globalDecl{}, err
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return globalDecl{}, err
	}
	return globalDecl{name: name.text, size: size, line: line}, nil
}

func (p *parser) funcDecl() (*funcDecl, error) {
	line := p.cur().line
	p.pos++ // func
	name, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tPunct, ")") {
		if len(params) > 0 {
			if _, err := p.expect(tPunct, ","); err != nil {
				return nil, err
			}
		}
		id, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		params = append(params, id.text)
	}
	p.pos++ // )
	if len(params) > 4 {
		return nil, errf(line, "more than 4 parameters (registers r3..r6 carry arguments)")
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcDecl{name: name.text, params: params, body: body, line: line}, nil
}

func (p *parser) block() ([]stmt, error) {
	if _, err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []stmt
	for !p.accept(tPunct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) stmt() (stmt, error) {
	t := p.cur()
	switch {
	case p.at(tKeyword, "var"):
		p.pos++
		name, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		var init expr
		if p.accept(tPunct, "=") {
			init, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return varDecl{name: name.text, init: init, line: t.line}, nil

	case p.at(tKeyword, "if"):
		p.pos++
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els []stmt
		if p.accept(tKeyword, "else") {
			if p.at(tKeyword, "if") {
				s, err := p.stmt()
				if err != nil {
					return nil, err
				}
				els = []stmt{s}
			} else {
				els, err = p.block()
				if err != nil {
					return nil, err
				}
			}
		}
		return ifStmt{cond: cond, then: then, else_: els, line: t.line}, nil

	case p.at(tKeyword, "while"):
		p.pos++
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return whileStmt{cond: cond, body: body, line: t.line}, nil

	case p.at(tKeyword, "return"):
		p.pos++
		var v expr
		var err error
		if !p.at(tPunct, ";") {
			v, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return returnStmt{value: v, line: t.line}, nil

	case p.at(tKeyword, "print"), p.at(tKeyword, "putc"):
		char := t.text == "putc"
		p.pos++
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return printStmt{e: e, char: char, line: t.line}, nil
	}

	// Assignment or expression statement.
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.accept(tPunct, "=") {
		lv, ok := e.(lvalue)
		if !ok {
			return nil, errf(t.line, "left side of assignment is not assignable")
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return assign{target: lv, value: v, line: t.line}, nil
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return exprStmt{e: e, line: t.line}, nil
}

// Operator precedence, lowest first.
var precedence = []([]string){
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) expr() (expr, error) { return p.binary(0) }

func (p *parser) binary(level int) (expr, error) {
	if level >= len(precedence) {
		return p.unary()
	}
	l, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precedence[level] {
			if p.at(tPunct, op) {
				line := p.cur().line
				p.pos++
				r, err := p.binary(level + 1)
				if err != nil {
					return nil, err
				}
				l = binExpr{op: op, l: l, r: r, line: line}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.cur()
	if p.accept(tPunct, "-") || p.accept(tPunct, "!") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return unExpr{op: t.text, e: e, line: t.line}, nil
	}
	return p.primary()
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tNum:
		p.pos++
		return numLit{v: t.num, line: t.line}, nil
	case p.accept(tPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tIdent:
		p.pos++
		if p.accept(tPunct, "(") {
			var args []expr
			for !p.at(tPunct, ")") {
				if len(args) > 0 {
					if _, err := p.expect(tPunct, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			p.pos++ // )
			return callExpr{name: t.text, args: args, line: t.line}, nil
		}
		if p.accept(tPunct, "[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			return indexExpr{base: varRef{name: t.text, line: t.line}, idx: idx, line: t.line}, nil
		}
		return varRef{name: t.text, line: t.line}, nil
	}
	return nil, errf(t.line, "unexpected %q in expression", p.curText())
}
