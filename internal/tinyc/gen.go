package tinyc

import (
	"fmt"
	"strings"
)

// Code generation. The generator emits *naive* assembly text: no delay
// slots, no interlock padding, loads used immediately. The reorganizer is
// responsible for making it legal, exactly as in the paper's toolchain.
//
// Register conventions (see internal/isa): r2 return value, r3..r6
// arguments, r7..r14 expression evaluation stack, r15 scratch, sp/fp/ra.

const (
	evalBase = 7 // first expression register
	maxDepth = 8 // r7..r14
)

// Layout places a program's runtime regions. Code and static data always
// sit in low memory (the 17-bit absolute addressing of la/call reaches the
// first 64K words); heap and stack may live anywhere, set by 32-bit li.
type Layout struct {
	HeapBase uint32 // first heap word (cons cells)
	StackTop uint32 // initial stack pointer (grows down)
}

// DefaultLayout is the single-program layout: heap at 64K words, stack
// growing down from 128K.
func DefaultLayout() Layout {
	return Layout{HeapBase: 1 << 16, StackTop: 1 << 17}
}

// loc is where a local variable lives: a callee-saved register (the
// common case — the paper-era compilers kept scalars in registers, which is
// what gives the reorganizer movable instructions for the delay slots) or a
// frame slot when the function has more scalars than r16..r25 can hold.
type loc struct {
	inReg bool
	reg   string // register name when inReg
	off   int    // fp offset otherwise
}

// gen generates code for a checked program (check.go): every name
// resolves, so a variable that is not a local is a global.
type gen struct {
	b         strings.Builder
	layout    Layout
	prog      *program
	locs      map[string]loc // name → register or frame slot
	spillBase int            // first free spill slot offset
	nextSpill int
	frame     int
	depth     int
	nextLabel int
	usesMul   bool
	usesDiv   bool
	usesHeap  bool
	epilogue  string
}

func generate(prog *program, layout Layout) (string, error) {
	g := &gen{layout: layout, prog: prog}

	// Startup: the entry symbol the machine looks for.
	g.emit("main:")
	g.emit("\tli sp, %d", g.layout.StackTop)
	g.emit("\tli r15, %d", g.layout.HeapBase)
	g.emit("\tst r15, __hp(r0)")
	g.emit("\tcall f_main")
	g.emit("\thalt")

	for _, f := range prog.funcs {
		if err := g.genFunc(f); err != nil {
			return "", err
		}
	}
	if g.usesMul {
		g.b.WriteString(mulRuntime)
	}
	if g.usesDiv {
		g.b.WriteString(divRuntime)
	}
	// Globals.
	g.emit("__hp:\t.word 0")
	for _, gl := range g.prog.globals {
		if gl.size == 1 {
			g.emit("g_%s:\t.word 0", gl.name)
		} else {
			g.emit("g_%s:\t.space %d", gl.name, gl.size)
		}
	}
	return g.b.String(), nil
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *gen) label(prefix string) string {
	g.nextLabel++
	return fmt.Sprintf(".L%s%d", prefix, g.nextLabel)
}

func (g *gen) reg(i int) string { return fmt.Sprintf("r%d", evalBase+i) }

// push reserves the next expression register.
func (g *gen) push(line int) (string, error) {
	if g.depth >= maxDepth {
		return "", errf(line, "expression too complex (more than %d live temporaries)", maxDepth)
	}
	r := g.reg(g.depth)
	g.depth++
	return r, nil
}

// collectLocalNames returns every scalar name in declaration order
// (parameters first), so register assignment is deterministic.
func collectLocalNames(f *funcDecl) []string {
	var names []string
	names = append(names, f.params...)
	var walk func(stmts []stmt)
	walk = func(stmts []stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case varDecl:
				names = append(names, s.name)
			case ifStmt:
				walk(s.then)
				walk(s.else_)
			case whileStmt:
				walk(s.body)
			}
		}
	}
	walk(f.body)
	return names
}

// 17-bit immediate bounds for the addi fold.
const (
	isa17Min = -(1 << 16)
	isa17Max = 1<<16 - 1
)

// Callee-saved registers available for scalar locals.
const (
	sRegBase  = 16
	sRegCount = 10 // r16..r25
)

func (g *gen) genFunc(f *funcDecl) error {
	names := collectLocalNames(f)
	g.locs = map[string]loc{}
	nReg := len(names)
	if nReg > sRegCount {
		nReg = sRegCount
	}
	nSpill := len(names) - nReg
	// Frame: [ra, fp, saved s-regs..., spilled locals...].
	g.frame = 2 + nReg + nSpill
	g.spillBase = 2 + nReg
	g.nextSpill = g.spillBase
	for i, n := range names {
		if i < nReg {
			g.locs[n] = loc{inReg: true, reg: fmt.Sprintf("r%d", sRegBase+i)}
		} else {
			g.locs[n] = loc{off: g.nextSpill}
			g.nextSpill++
		}
	}
	g.depth = 0
	g.epilogue = g.label("ret")

	g.emit("f_%s:", f.name)
	g.emit("\taddi sp, sp, %d", -g.frame)
	g.emit("\tst ra, 0(sp)")
	g.emit("\tst fp, 1(sp)")
	g.emit("\tmov fp, sp")
	for i := 0; i < nReg; i++ {
		g.emit("\tst r%d, %d(fp)", sRegBase+i, 2+i)
	}
	for i, p := range f.params {
		l := g.locs[p]
		if l.inReg {
			g.emit("\tmov %s, r%d", l.reg, 3+i)
		} else {
			g.emit("\tst r%d, %d(fp)", 3+i, l.off)
		}
	}
	if err := g.genStmts(f.body); err != nil {
		return err
	}
	// Fall-off-the-end returns zero.
	g.emit("\tmov r2, r0")
	g.emit("%s:", g.epilogue)
	g.emit("\tmov r15, fp")
	for i := 0; i < nReg; i++ {
		g.emit("\tld r%d, %d(r15)", sRegBase+i, 2+i)
	}
	g.emit("\tld ra, 0(r15)")
	g.emit("\tld fp, 1(r15)")
	g.emit("\taddi sp, r15, %d", g.frame)
	g.emit("\tret")
	return nil
}

// writeLoc stores the value in register src into the variable's location.
func (g *gen) writeLoc(l loc, src string) {
	if l.inReg {
		if l.reg != src {
			g.emit("\tmov %s, %s", l.reg, src)
		}
	} else {
		g.emit("\tst %s, %d(fp)", src, l.off)
	}
}

func (g *gen) genStmts(stmts []stmt) error {
	for _, s := range stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
		if g.depth != 0 {
			panic("tinyc: expression stack imbalance")
		}
	}
	return nil
}

func (g *gen) genStmt(s stmt) error {
	switch s := s.(type) {
	case varDecl:
		// Locations were assigned in the prologue pass; only the
		// initializer emits code.
		if s.init != nil {
			r, err := g.genExpr(s.init)
			if err != nil {
				return err
			}
			g.writeLoc(g.locs[s.name], r)
			g.depth--
		}
		return nil

	case assign:
		return g.genAssign(s)

	case ifStmt:
		elseL := g.label("else")
		endL := g.label("fi")
		if err := g.genCondJump(s.cond, elseL, false); err != nil {
			return err
		}
		if err := g.genStmts(s.then); err != nil {
			return err
		}
		if len(s.else_) > 0 {
			g.emit("\tb %s", endL)
			g.emit("%s:", elseL)
			if err := g.genStmts(s.else_); err != nil {
				return err
			}
			g.emit("%s:", endL)
		} else {
			g.emit("%s:", elseL)
		}
		return nil

	case whileStmt:
		// Inverted loop: a forward guard test at entry (rarely taken), then
		// body and bottom test in one basic block ending with a backward
		// taken branch. This is the classic loop shape of the era: the
		// closing branch is predicted taken by the static heuristic, and
		// the body provides material for the delay-slot filler.
		endL := g.label("we")
		bodyL := g.label("wb")
		if err := g.genCondJump(s.cond, endL, false); err != nil {
			return err
		}
		g.emit("%s:", bodyL)
		if err := g.genStmts(s.body); err != nil {
			return err
		}
		if err := g.genCondJump(s.cond, bodyL, true); err != nil {
			return err
		}
		g.emit("%s:", endL)
		return nil

	case returnStmt:
		if s.value != nil {
			r, err := g.genExpr(s.value)
			if err != nil {
				return err
			}
			g.emit("\tmov r2, %s", r)
			g.depth--
		} else {
			g.emit("\tmov r2, r0")
		}
		g.emit("\tb %s", g.epilogue)
		return nil

	case exprStmt:
		r, err := g.genExpr(s.e)
		if err != nil {
			return err
		}
		_ = r
		g.depth--
		return nil

	case printStmt:
		r, err := g.genExpr(s.e)
		if err != nil {
			return err
		}
		if s.char {
			g.emit("\tputc %s", r)
		} else {
			g.emit("\tputw %s", r)
		}
		g.depth--
		return nil
	}
	panic("tinyc: unknown statement")
}

func (g *gen) genAssign(s assign) error {
	switch t := s.target.(type) {
	case varRef:
		r, err := g.genExpr(s.value)
		if err != nil {
			return err
		}
		if l, ok := g.locs[t.name]; ok {
			g.writeLoc(l, r)
		} else {
			g.emit("\tst %s, g_%s(r0)", r, t.name)
		}
		g.depth--
		return nil
	case indexExpr:
		idx, err := g.genExpr(t.idx)
		if err != nil {
			return err
		}
		val, err := g.genExpr(s.value)
		if err != nil {
			return err
		}
		g.emit("\tst %s, g_%s(%s)", val, t.base.name, idx)
		g.depth -= 2
		return nil
	}
	panic("tinyc: unknown lvalue")
}

// genCondJump compiles "jump to label when cond is (jumpIfTrue)". Top-level
// comparisons fuse into MIPS-X compare-and-branch instructions — the whole
// point of a machine without condition codes.
func (g *gen) genCondJump(cond expr, label string, jumpIfTrue bool) error {
	// Short-circuit operators compile to branch chains, never to
	// materialized booleans.
	if b, ok := cond.(binExpr); ok && (b.op == "&&" || b.op == "||") {
		if (b.op == "||") == jumpIfTrue {
			// Both arms jump to the same place: a || b → L-if-true is
			// "a → L; b → L" (dually for && with jump-if-false).
			if err := g.genCondJump(b.l, label, jumpIfTrue); err != nil {
				return err
			}
			return g.genCondJump(b.r, label, jumpIfTrue)
		}
		// Mixed sense: the first arm can decide the opposite way early.
		skip := g.label("cc")
		if err := g.genCondJump(b.l, skip, !jumpIfTrue); err != nil {
			return err
		}
		if err := g.genCondJump(b.r, label, jumpIfTrue); err != nil {
			return err
		}
		g.emit("%s:", skip)
		return nil
	}
	if u, ok := cond.(unExpr); ok && u.op == "!" {
		return g.genCondJump(u.e, label, !jumpIfTrue)
	}
	if b, ok := cond.(binExpr); ok && branchFor(b.op, true) != "" {
		l, lEval, err := g.genOperand(b.l)
		if err != nil {
			return err
		}
		r, rEval, err := g.genOperand(b.r)
		if err != nil {
			return err
		}
		g.emit("\t%s %s, %s, %s", branchFor(b.op, jumpIfTrue), l, r, label)
		if lEval {
			g.depth--
		}
		if rEval {
			g.depth--
		}
		return nil
	}
	r, err := g.genExpr(cond)
	if err != nil {
		return err
	}
	if jumpIfTrue {
		g.emit("\tbne %s, r0, %s", r, label)
	} else {
		g.emit("\tbeq %s, r0, %s", r, label)
	}
	g.depth--
	return nil
}

// branchFor returns the branch mnemonic testing op (or its negation).
func branchFor(op string, wantTrue bool) string {
	pos := map[string]string{
		"==": "beq", "!=": "bne", "<": "blt", "<=": "ble", ">": "bgt", ">=": "bge",
	}
	neg := map[string]string{
		"==": "bne", "!=": "beq", "<": "bge", "<=": "bgt", ">": "ble", ">=": "blt",
	}
	if wantTrue {
		return pos[op]
	}
	return neg[op]
}

// genExpr emits code leaving the result in the next expression register and
// returns its name (depth is incremented).
func (g *gen) genExpr(e expr) (string, error) {
	switch e := e.(type) {
	case numLit:
		r, err := g.push(e.line)
		if err != nil {
			return "", err
		}
		g.emit("\tli %s, %d", r, e.v)
		return r, nil

	case varRef:
		r, err := g.push(e.line)
		if err != nil {
			return "", err
		}
		if l, ok := g.locs[e.name]; !ok {
			g.emit("\tld %s, g_%s(r0)", r, e.name)
		} else if l.inReg {
			g.emit("\tmov %s, %s", r, l.reg)
		} else {
			g.emit("\tld %s, %d(fp)", r, l.off)
		}
		return r, nil

	case indexExpr:
		idx, err := g.genExpr(e.idx)
		if err != nil {
			return "", err
		}
		g.emit("\tld %s, g_%s(%s)", idx, e.base.name, idx)
		return idx, nil

	case unExpr:
		r, err := g.genExpr(e.e)
		if err != nil {
			return "", err
		}
		switch e.op {
		case "-":
			g.emit("\tsub %s, r0, %s", r, r)
		case "!":
			g.emit("\tseteq %s, %s, r0", r, r)
		}
		return r, nil

	case binExpr:
		return g.genBin(e)

	case callExpr:
		return g.genCall(e)
	}
	panic("tinyc: unknown expression")
}

// genOperand yields a register holding the expression's value. Variables
// already living in callee-saved registers are used directly (no copy, no
// eval slot); anything else evaluates into the next eval register and
// reports usedEval so the caller can release it.
func (g *gen) genOperand(e expr) (src string, usedEval bool, err error) {
	if n, ok := e.(numLit); ok && n.v == 0 {
		return "r0", false, nil // the hardwired zero register
	}
	if v, ok := e.(varRef); ok {
		if l, ok2 := g.locs[v.name]; ok2 && l.inReg {
			return l.reg, false, nil
		}
	}
	r, err := g.genExpr(e)
	if err != nil {
		return "", false, err
	}
	return r, true, nil
}

// binResult allocates the destination register for a two-operand operation
// whose sources may or may not occupy eval slots.
func (g *gen) binResult(lEval, rEval bool, l, r string, line int) (string, error) {
	switch {
	case lEval && rEval:
		g.depth-- // result replaces l; r's slot freed
		return l, nil
	case lEval:
		return l, nil
	case rEval:
		return r, nil
	default:
		return g.push(line)
	}
}

func (g *gen) genBin(e binExpr) (string, error) {
	switch e.op {
	case "&&", "||":
		return g.genShortCircuit(e)
	case "*":
		g.usesMul = true
		return g.genRuntimeCall("__mul", []expr{e.l, e.r}, e.line)
	case "/":
		g.usesDiv = true
		return g.genRuntimeCall("__div", []expr{e.l, e.r}, e.line)
	case "%":
		g.usesDiv = true
		return g.genRuntimeCall("__mod", []expr{e.l, e.r}, e.line)
	case "<<", ">>":
		// The funnel shifter takes a constant amount; variable shifts would
		// need a software loop, which the language does not provide.
		n := e.r.(numLit)
		l, err := g.genExpr(e.l)
		if err != nil {
			return "", err
		}
		if e.op == "<<" {
			g.emit("\tsll %s, %s, %d", l, l, n.v)
		} else {
			// Arithmetic right shift; the expansion needs distinct
			// registers, so go through the scratch register.
			g.emit("\tmov r15, %s", l)
			g.emit("\tsra %s, r15, %d", l, n.v)
		}
		return l, nil
	}

	// Small-immediate addition folds into addi against a register operand.
	if e.op == "+" || e.op == "-" {
		if n, ok := e.r.(numLit); ok && n.v > isa17Min && n.v < isa17Max {
			v := n.v
			if e.op == "-" {
				v = -v
			}
			l, lEval, err := g.genOperand(e.l)
			if err != nil {
				return "", err
			}
			dst, err := g.binResult(lEval, false, l, "", e.line)
			if err != nil {
				return "", err
			}
			g.emit("\taddiu %s, %s, %d", dst, l, v)
			return dst, nil
		}
	}
	l, lEval, err := g.genOperand(e.l)
	if err != nil {
		return "", err
	}
	r, rEval, err := g.genOperand(e.r)
	if err != nil {
		return "", err
	}
	dst, err := g.binResult(lEval, rEval, l, r, e.line)
	if err != nil {
		return "", err
	}
	switch e.op {
	case "+":
		g.emit("\taddu %s, %s, %s", dst, l, r)
	case "-":
		g.emit("\tsubu %s, %s, %s", dst, l, r)
	case "&":
		g.emit("\tand %s, %s, %s", dst, l, r)
	case "|":
		g.emit("\tor %s, %s, %s", dst, l, r)
	case "^":
		g.emit("\txor %s, %s, %s", dst, l, r)
	case "<":
		g.emit("\tsetlt %s, %s, %s", dst, l, r)
	case ">":
		g.emit("\tsetgt %s, %s, %s", dst, l, r)
	case "==":
		g.emit("\tseteq %s, %s, %s", dst, l, r)
	case "!=":
		g.emit("\tseteq %s, %s, %s", dst, l, r)
		g.emit("\tseteq %s, %s, r0", dst, dst)
	case "<=":
		g.emit("\tsetgt %s, %s, %s", dst, l, r)
		g.emit("\tseteq %s, %s, r0", dst, dst)
	case ">=":
		g.emit("\tsetlt %s, %s, %s", dst, l, r)
		g.emit("\tseteq %s, %s, r0", dst, dst)
	default:
		panic("tinyc: unknown operator " + e.op)
	}
	return dst, nil
}

func (g *gen) genShortCircuit(e binExpr) (string, error) {
	end := g.label("sc")
	l, err := g.genExpr(e.l)
	if err != nil {
		return "", err
	}
	// Normalize the left value to 0/1 so the result is boolean either way.
	g.emit("\tseteq %s, %s, r0", l, l)
	g.emit("\tseteq %s, %s, r0", l, l)
	if e.op == "&&" {
		g.emit("\tbeq %s, r0, %s", l, end)
	} else {
		g.emit("\tbne %s, r0, %s", l, end)
	}
	g.depth-- // re-evaluate into the same register
	r, err := g.genExpr(e.r)
	if err != nil {
		return "", err
	}
	g.emit("\tseteq %s, %s, r0", r, r)
	g.emit("\tseteq %s, %s, r0", r, r)
	g.emit("%s:", end)
	return r, nil
}

// genCall compiles a user function call or a builtin.
func (g *gen) genCall(e callExpr) (string, error) {
	switch e.name {
	case "cons":
		return g.genCons(e)
	case "car", "cdr":
		g.usesHeap = true
		r, err := g.genExpr(e.args[0])
		if err != nil {
			return "", err
		}
		off := 0
		if e.name == "cdr" {
			off = 1
		}
		g.emit("\tld %s, %d(%s)", r, off, r)
		return r, nil
	case "setcar", "setcdr":
		g.usesHeap = true
		p, err := g.genExpr(e.args[0])
		if err != nil {
			return "", err
		}
		v, err := g.genExpr(e.args[1])
		if err != nil {
			return "", err
		}
		off := 0
		if e.name == "setcdr" {
			off = 1
		}
		g.emit("\tst %s, %d(%s)", v, off, p)
		g.emit("\tmov %s, %s", p, v)
		g.depth--
		return p, nil
	case "itof", "ftoi":
		r, err := g.genExpr(e.args[0])
		if err != nil {
			return "", err
		}
		g.emit("\tstc %s, c1, %d(r0)", r, fpuGetR(0))
		if e.name == "itof" {
			g.emit("\tcpw c1, %d(r0)", fpuCmd(6, 0, 0)) // FCvtW
		} else {
			g.emit("\tcpw c1, %d(r0)", fpuCmd(7, 0, 0)) // FCvtF
		}
		g.emit("\tldc %s, c1, %d(r0)", r, fpuGetR(0))
		return r, nil
	case "fadd", "fsub", "fmul", "fdiv", "flt", "feq":
		a, err := g.genExpr(e.args[0])
		if err != nil {
			return "", err
		}
		b, err := g.genExpr(e.args[1])
		if err != nil {
			return "", err
		}
		g.emit("\tstc %s, c1, %d(r0)", a, fpuGetR(0))
		g.emit("\tstc %s, c1, %d(r0)", b, fpuGetR(1))
		op := map[string]uint16{"fadd": 0, "fsub": 1, "fmul": 2, "fdiv": 3, "flt": 8, "feq": 9}[e.name]
		g.emit("\tcpw c1, %d(r0)", fpuCmd(op, 0, 1))
		g.depth--
		switch e.name {
		case "flt", "feq":
			g.emit("\tldc %s, c1, %d(r0)", a, fpuCmd(10, 0, 0)) // FGetS
		default:
			g.emit("\tldc %s, c1, %d(r0)", a, fpuGetR(0))
		}
		return a, nil
	}
	return g.genRuntimeCall("f_"+e.name, e.args, e.line)
}

// genRuntimeCall evaluates args, saves live expression registers across the
// call, and leaves the result in the next expression register.
func (g *gen) genRuntimeCall(target string, args []expr, line int) (string, error) {
	live := g.depth
	if live > 0 {
		g.emit("\taddi sp, sp, %d", -live)
		for i := 0; i < live; i++ {
			g.emit("\tst %s, %d(sp)", g.reg(i), i)
		}
	}
	// Evaluate arguments with a fresh register window.
	g.depth = 0
	for _, a := range args {
		if _, err := g.genExpr(a); err != nil {
			return "", err
		}
	}
	for i := range args {
		g.emit("\tmov r%d, %s", 3+i, g.reg(i))
	}
	g.emit("\tcall %s", target)
	if live > 0 {
		for i := 0; i < live; i++ {
			g.emit("\tld %s, %d(sp)", g.reg(i), i)
		}
		g.emit("\taddi sp, sp, %d", live)
	}
	g.depth = live
	r, err := g.push(line)
	if err != nil {
		return "", err
	}
	g.emit("\tmov %s, r2", r)
	return r, nil
}

func (g *gen) genCons(e callExpr) (string, error) {
	g.usesHeap = true
	a, err := g.genExpr(e.args[0])
	if err != nil {
		return "", err
	}
	b, err := g.genExpr(e.args[1])
	if err != nil {
		return "", err
	}
	g.emit("\tld r15, __hp(r0)")
	g.emit("\tst %s, 0(r15)", a)
	g.emit("\tst %s, 1(r15)", b)
	g.emit("\tmov %s, r15", a)
	g.emit("\taddi r15, r15, 2")
	g.emit("\tst r15, __hp(r0)")
	g.depth--
	return a, nil
}

// FPU command helpers (see coproc.FPUCmd; duplicated as plain arithmetic so
// the emitted text stays self-describing).
func fpuCmd(op, fd, fs uint16) uint16 { return op<<8 | fd<<4 | fs }
func fpuGetR(fd uint16) uint16        { return fpuCmd(11, fd, 0) }
