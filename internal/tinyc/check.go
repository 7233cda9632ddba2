package tinyc

// builtins maps each builtin function to the number of arguments it takes.
var builtins = map[string]int{
	"cons": 2, "car": 1, "cdr": 1, "setcar": 2, "setcdr": 2,
	"itof": 1, "ftoi": 1, "fadd": 2, "fsub": 2, "fmul": 2,
	"fdiv": 2, "flt": 2, "feq": 2,
}

// check is tinyc's semantic pass and the only home of its static rules.
// Every program goes lex → parse → check before either backend sees it, so
// the MIPS-X generator (gen.go) and the CISC generator (vaxgen.go) accept
// and reject the same programs and resolve every name the same way; each
// raises only the limits of its own machine. The rules:
//   - globals, functions, and each function's parameters and locals have
//     distinct names;
//   - no function is named like a builtin (builtins lists them);
//   - there is a function named main;
//   - every variable names a local of its function or a global. Locals
//     are function-scoped: a var declared anywhere in a body, nested blocks
//     included, is one slot visible throughout the body (before its
//     declaration too) and hides a global of the same name there;
//   - the base of an index expression names a global (a local of that
//     name does not hide it);
//   - every call names a builtin or a function and passes as many
//     arguments as it takes;
//   - a shift amount is a constant 0..31.
//
// The lexer holds each literal to one word, 0..4294967295. A local read
// before it is assigned holds an unspecified value.
func check(prog *program) error {
	globals := map[string]bool{}
	for _, gl := range prog.globals {
		if globals[gl.name] {
			return errf(gl.line, "duplicate global %q", gl.name)
		}
		globals[gl.name] = true
	}
	arity := map[string]int{}
	for _, f := range prog.funcs {
		if _, ok := builtins[f.name]; ok {
			return errf(f.line, "%q is a builtin", f.name)
		}
		if _, dup := arity[f.name]; dup {
			return errf(f.line, "duplicate function %q", f.name)
		}
		arity[f.name] = len(f.params)
	}
	if _, ok := arity["main"]; !ok {
		return errf(1, "no main function")
	}
	for _, f := range prog.funcs {
		c := checker{globals: globals, arity: arity, locals: map[string]bool{}}
		for _, n := range collectLocalNames(f) {
			if c.locals[n] {
				return errf(f.line, "duplicate local %q in %s", n, f.name)
			}
			c.locals[n] = true
		}
		if err := c.stmts(f.body); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	globals, locals map[string]bool
	arity           map[string]int // user function → parameter count
}

func (c *checker) stmts(body []stmt) error {
	for _, s := range body {
		var err error
		switch s := s.(type) {
		case varDecl:
			err = c.exprs(s.init)
		case assign:
			err = c.exprs(s.target, s.value)
		case ifStmt:
			if err = c.exprs(s.cond); err == nil {
				if err = c.stmts(s.then); err == nil {
					err = c.stmts(s.else_)
				}
			}
		case whileStmt:
			if err = c.exprs(s.cond); err == nil {
				err = c.stmts(s.body)
			}
		case returnStmt:
			err = c.exprs(s.value)
		case exprStmt:
			err = c.exprs(s.e)
		case printStmt:
			err = c.exprs(s.e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// exprs checks each expression in turn; a nil one (an absent initializer
// or return value) passes.
func (c *checker) exprs(es ...expr) error {
	for _, e := range es {
		var err error
		switch e := e.(type) {
		case varRef:
			if !c.locals[e.name] && !c.globals[e.name] {
				return errf(e.line, "undefined variable %q", e.name)
			}
		case indexExpr:
			if !c.globals[e.base.name] {
				return errf(e.line, "indexing requires a global array, %q is not one", e.base.name)
			}
			err = c.exprs(e.idx)
		case unExpr:
			err = c.exprs(e.e)
		case binExpr:
			if n, ok := e.r.(numLit); (e.op == "<<" || e.op == ">>") && (!ok || n.v < 0 || n.v > 31) {
				return errf(e.line, "shift amount must be a constant 0..31")
			}
			err = c.exprs(e.l, e.r)
		case callExpr:
			want, ok := builtins[e.name]
			if !ok {
				want, ok = c.arity[e.name]
			}
			if !ok {
				return errf(e.line, "undefined function %q", e.name)
			}
			if len(e.args) != want {
				return errf(e.line, "%s wants %d arguments, got %d", e.name, want, len(e.args))
			}
			err = c.exprs(e.args...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
