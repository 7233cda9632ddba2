package tinyc

// Second backend: the same tinyc programs compiled for the vaxlike CISC
// baseline (internal/vaxlike), used by the paper's VAX 11/780 comparison
// (experiment E7). The backend deliberately exploits what a CISC offers —
// memory operands inside arithmetic instructions, read-modify-write on
// memory, condition codes reused by branches — so the dynamic instruction
// count contrast against the load/store MIPS-X backend is honest.

import (
	"fmt"

	"repro/internal/vaxlike"
)

// VAX memory layout: globals from address 4096, heap pointer cell at 2048,
// heap from 1<<21, stack from 1<<20 down.
const (
	vaxGlobalBase = 4096
	vaxHPAddr     = 2048
	vaxHeapBase   = 1 << 21
)

// Eval registers r1..r8; args r9..r12; rv r0; fp r13; sp r14.
const (
	vaxEvalBase = 1
	vaxMaxDepth = 8
	vaxArgBase  = 9
)

// vaxGen generates code for a checked program (check.go): every name
// resolves, so a variable that is not a local is a global.
type vaxGen struct {
	code    []vaxlike.Instr
	globals map[string]int32 // name → absolute address

	fixups    map[string][]int // label → instruction indices needing Target
	labelAddr map[string]int32

	locals    map[string]int32 // fp displacement
	frame     int32
	depth     int
	nextLabel int
	epilogue  string
}

// GenerateVAX compiles a tinyc program for the vaxlike baseline.
func GenerateVAX(src string) ([]vaxlike.Instr, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	g := &vaxGen{
		globals:   map[string]int32{},
		fixups:    map[string][]int{},
		labelAddr: map[string]int32{},
	}
	addr := int32(vaxGlobalBase)
	for _, gl := range prog.globals {
		g.globals[gl.name] = addr
		addr += int32(gl.size)
	}

	// Startup.
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(vaxHeapBase), Dst: vaxlike.Abs(vaxHPAddr)})
	g.jsr("f_main")
	g.emit(vaxlike.Instr{Op: vaxlike.HALT})

	for _, f := range prog.funcs {
		if err := g.genFunc(f); err != nil {
			return nil, err
		}
	}
	// Resolve labels.
	for label, sites := range g.fixups {
		a, ok := g.labelAddr[label]
		if !ok {
			return nil, errf(1, "vax backend: unresolved label %q", label)
		}
		for _, i := range sites {
			g.code[i].Target = a
		}
	}
	return g.code, nil
}

// BuildVAX compiles for the CISC baseline and returns a ready machine.
func BuildVAX(src string) (*vaxlike.Machine, error) {
	code, err := GenerateVAX(src)
	if err != nil {
		return nil, err
	}
	return vaxlike.New(code, nil), nil
}

func (g *vaxGen) emit(in vaxlike.Instr) { g.code = append(g.code, in) }

func (g *vaxGen) mark(label string) { g.labelAddr[label] = int32(len(g.code)) }

func (g *vaxGen) branch(op vaxlike.Op, label string) {
	g.fixups[label] = append(g.fixups[label], len(g.code))
	g.emit(vaxlike.Instr{Op: op})
}

func (g *vaxGen) jsr(label string) { g.branch(vaxlike.JSR, label) }

func (g *vaxGen) label(prefix string) string {
	g.nextLabel++
	return fmt.Sprintf(".V%s%d", prefix, g.nextLabel)
}

func (g *vaxGen) reg(i int) uint8 { return uint8(vaxEvalBase + i) }

func (g *vaxGen) push(line int) (uint8, error) {
	if g.depth >= vaxMaxDepth {
		return 0, errf(line, "expression too complex (more than %d live temporaries)", vaxMaxDepth)
	}
	r := g.reg(g.depth)
	g.depth++
	return r, nil
}

func (g *vaxGen) genFunc(f *funcDecl) error {
	// Frame: [parameters, locals in declaration order, saved fp].
	names := collectLocalNames(f)
	g.locals = map[string]int32{}
	for i, n := range names {
		g.locals[n] = int32(i)
	}
	g.frame = int32(len(names)) + 1
	g.depth = 0
	g.epilogue = g.label("ret")

	g.mark("f_" + f.name)
	sp, fp := uint8(vaxlike.RegSP), uint8(vaxlike.RegFP)
	g.emit(vaxlike.Instr{Op: vaxlike.SUB, Src: vaxlike.Lit(g.frame), Dst: vaxlike.Reg(sp)})
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(fp), Dst: vaxlike.Disp(sp, g.frame-1)})
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(sp), Dst: vaxlike.Reg(fp)})
	for i := range f.params {
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(uint8(vaxArgBase + i)), Dst: vaxlike.Disp(fp, int32(i))})
	}
	if err := g.genStmts(f.body); err != nil {
		return err
	}
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(0), Dst: vaxlike.Reg(vaxlike.RegRV)})
	g.mark(g.epilogue)
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(fp), Dst: vaxlike.Reg(sp)})
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Disp(sp, g.frame-1), Dst: vaxlike.Reg(fp)})
	g.emit(vaxlike.Instr{Op: vaxlike.ADD, Src: vaxlike.Lit(g.frame), Dst: vaxlike.Reg(sp)})
	g.emit(vaxlike.Instr{Op: vaxlike.RSB})
	return nil
}

func (g *vaxGen) genStmts(stmts []stmt) error {
	for _, s := range stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
		if g.depth != 0 {
			panic("vaxgen: expression stack imbalance")
		}
	}
	return nil
}

// varOperand addresses a variable: its frame slot, or its global word.
func (g *vaxGen) varOperand(name string) vaxlike.Operand {
	if off, ok := g.locals[name]; ok {
		return vaxlike.Disp(vaxlike.RegFP, off)
	}
	return vaxlike.Abs(g.globals[name])
}

// simpleOperand tries to express an expression as a single addressing mode,
// without emitting code — the CISC advantage.
func (g *vaxGen) simpleOperand(e expr) (vaxlike.Operand, bool) {
	switch e := e.(type) {
	case numLit:
		return vaxlike.Lit(int32(e.v)), true
	case varRef:
		return g.varOperand(e.name), true
	}
	return vaxlike.Operand{}, false
}

func (g *vaxGen) genStmt(s stmt) error {
	switch s := s.(type) {
	case varDecl:
		if s.init == nil {
			return nil
		}
		return g.genAssign(varRef{name: s.name}, s.init)

	case assign:
		return g.genAssign(s.target, s.value)

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
			g.branch(vaxlike.BR, endL)
			g.mark(elseL)
			if err := g.genStmts(s.else_); err != nil {
				return err
			}
			g.mark(endL)
		} else {
			g.mark(elseL)
		}
		return nil

	case whileStmt:
		condL := g.label("wc")
		bodyL := g.label("wb")
		g.branch(vaxlike.BR, condL)
		g.mark(bodyL)
		if err := g.genStmts(s.body); err != nil {
			return err
		}
		g.mark(condL)
		return g.genCondJump(s.cond, bodyL, true)

	case returnStmt:
		if s.value != nil {
			if op, ok := g.simpleOperand(s.value); ok {
				g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: op, Dst: vaxlike.Reg(vaxlike.RegRV)})
			} else {
				r, err := g.genExpr(s.value)
				if err != nil {
					return err
				}
				g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(r), Dst: vaxlike.Reg(vaxlike.RegRV)})
				g.depth--
			}
		} else {
			g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(0), Dst: vaxlike.Reg(vaxlike.RegRV)})
		}
		g.branch(vaxlike.BR, g.epilogue)
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
		op := vaxlike.PRNT
		if s.char {
			op = vaxlike.PUTC
		}
		if src, ok := g.simpleOperand(s.e); ok {
			g.emit(vaxlike.Instr{Op: op, Src: src})
			return nil
		}
		r, err := g.genExpr(s.e)
		if err != nil {
			return err
		}
		g.emit(vaxlike.Instr{Op: op, Src: vaxlike.Reg(r)})
		g.depth--
		return nil
	}
	panic("vaxgen: unknown statement")
}

// genAssign stores value into target with one MOV: memory to memory when
// the value is a single operand. Otherwise the value is evaluated first,
// since it may contain calls that would clobber the index register.
func (g *vaxGen) genAssign(target lvalue, value expr) error {
	depth := g.depth
	src, simple := g.simpleOperand(value)
	if !simple {
		r, err := g.genExpr(value)
		if err != nil {
			return err
		}
		src = vaxlike.Reg(r)
	}
	var dst vaxlike.Operand
	switch t := target.(type) {
	case varRef:
		dst = g.varOperand(t.name)
	case indexExpr:
		r, err := g.genExpr(t.idx)
		if err != nil {
			return err
		}
		dst = vaxlike.Idx(g.globals[t.base.name], r)
	}
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: src, Dst: dst})
	g.depth = depth // the MOV frees the value's and the index's registers
	return nil
}

var vaxCond = map[string][2]vaxlike.Op{
	// CMP l, r sets codes from l-r; first op jumps when true, second when false.
	"==": {vaxlike.BEQ, vaxlike.BNE},
	"!=": {vaxlike.BNE, vaxlike.BEQ},
	"<":  {vaxlike.BLT, vaxlike.BGE},
	"<=": {vaxlike.BLE, vaxlike.BGT},
	">":  {vaxlike.BGT, vaxlike.BLE},
	">=": {vaxlike.BGE, vaxlike.BLT},
}

func (g *vaxGen) genCondJump(cond expr, label string, jumpIfTrue bool) error {
	// Short-circuit chains compile to CMP+branch sequences, as CISC
	// compilers of the era did (parity with the MIPS-X backend).
	if b, ok := cond.(binExpr); ok && (b.op == "&&" || b.op == "||") {
		if (b.op == "||") == jumpIfTrue {
			if err := g.genCondJump(b.l, label, jumpIfTrue); err != nil {
				return err
			}
			return g.genCondJump(b.r, label, jumpIfTrue)
		}
		skip := g.label("cc")
		if err := g.genCondJump(b.l, skip, !jumpIfTrue); err != nil {
			return err
		}
		if err := g.genCondJump(b.r, label, jumpIfTrue); err != nil {
			return err
		}
		g.mark(skip)
		return nil
	}
	if u, ok := cond.(unExpr); ok && u.op == "!" {
		return g.genCondJump(u.e, label, !jumpIfTrue)
	}
	if b, ok := cond.(binExpr); ok {
		if ops, isCmp := vaxCond[b.op]; isCmp {
			// CMP with memory operands where possible: the condition-code
			// machine's one-instruction compare.
			lop, lok := g.simpleOperand(b.l)
			if !lok {
				r, err := g.genExpr(b.l)
				if err != nil {
					return err
				}
				lop = vaxlike.Reg(r)
			}
			rop, rok := g.simpleOperand(b.r)
			if !rok {
				r, err := g.genExpr(b.r)
				if err != nil {
					return err
				}
				rop = vaxlike.Reg(r)
			}
			g.emit(vaxlike.Instr{Op: vaxlike.CMP, Src: lop, Dst: rop})
			if !lok {
				g.depth--
			}
			if !rok {
				g.depth--
			}
			sel := 0
			if !jumpIfTrue {
				sel = 1
			}
			g.branch(ops[sel], label)
			return nil
		}
	}
	r, err := g.genExpr(cond)
	if err != nil {
		return err
	}
	g.emit(vaxlike.Instr{Op: vaxlike.TST, Src: vaxlike.Reg(r)})
	g.depth--
	if jumpIfTrue {
		g.branch(vaxlike.BNE, label)
	} else {
		g.branch(vaxlike.BEQ, label)
	}
	return nil
}

var vaxBinOp = map[string]vaxlike.Op{
	"+": vaxlike.ADD, "-": vaxlike.SUB, "*": vaxlike.MUL, "/": vaxlike.DIV,
	"%": vaxlike.MOD, "&": vaxlike.AND, "|": vaxlike.OR, "^": vaxlike.XOR,
}

func (g *vaxGen) genExpr(e expr) (uint8, error) {
	switch e := e.(type) {
	case numLit:
		r, err := g.push(e.line)
		if err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(int32(e.v)), Dst: vaxlike.Reg(r)})
		return r, nil

	case varRef:
		r, err := g.push(e.line)
		if err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: g.varOperand(e.name), Dst: vaxlike.Reg(r)})
		return r, nil

	case indexExpr:
		r, err := g.genExpr(e.idx)
		if err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Idx(g.globals[e.base.name], r), Dst: vaxlike.Reg(r)})
		return r, nil

	case unExpr:
		r, err := g.genExpr(e.e)
		if err != nil {
			return 0, err
		}
		switch e.op {
		case "-":
			g.emit(vaxlike.Instr{Op: vaxlike.MNEG, Src: vaxlike.Reg(r), Dst: vaxlike.Reg(r)})
		case "!":
			if err := g.bool01(r, vaxlike.BEQ, e.line); err != nil {
				return 0, err
			}
		}
		return r, nil

	case binExpr:
		return g.genVaxBin(e)

	case callExpr:
		return g.genVaxCall(e)
	}
	panic("vaxgen: unknown expression")
}

// bool01 replaces the value in r by 1 if branching on op after TST r would
// be taken, else 0.
func (g *vaxGen) bool01(r uint8, op vaxlike.Op, line int) error {
	one := g.label("b1")
	end := g.label("be")
	g.emit(vaxlike.Instr{Op: vaxlike.TST, Src: vaxlike.Reg(r)})
	g.branch(op, one)
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(0), Dst: vaxlike.Reg(r)})
	g.branch(vaxlike.BR, end)
	g.mark(one)
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(1), Dst: vaxlike.Reg(r)})
	g.mark(end)
	return nil
}

func (g *vaxGen) genVaxBin(e binExpr) (uint8, error) {
	if op, ok := vaxBinOp[e.op]; ok {
		l, err := g.genExpr(e.l)
		if err != nil {
			return 0, err
		}
		if src, ok := g.simpleOperand(e.r); ok {
			g.emit(vaxlike.Instr{Op: op, Src: src, Dst: vaxlike.Reg(l)})
			return l, nil
		}
		r, err := g.genExpr(e.r)
		if err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: op, Src: vaxlike.Reg(r), Dst: vaxlike.Reg(l)})
		g.depth--
		return l, nil
	}
	switch e.op {
	case "<<", ">>":
		n := e.r.(numLit)
		l, err := g.genExpr(e.l)
		if err != nil {
			return 0, err
		}
		amt := int32(n.v)
		if e.op == ">>" {
			amt = -amt
		}
		g.emit(vaxlike.Instr{Op: vaxlike.ASH, Src: vaxlike.Lit(amt), Dst: vaxlike.Reg(l)})
		return l, nil
	case "==", "!=", "<", "<=", ">", ">=":
		l, err := g.genExpr(e.l)
		if err != nil {
			return 0, err
		}
		rop, rok := g.simpleOperand(e.r)
		if !rok {
			r, err := g.genExpr(e.r)
			if err != nil {
				return 0, err
			}
			rop = vaxlike.Reg(r)
		}
		g.emit(vaxlike.Instr{Op: vaxlike.CMP, Src: vaxlike.Reg(l), Dst: rop})
		if !rok {
			g.depth--
		}
		return l, g.bool01cc(l, vaxCond[e.op][0])
	case "&&", "||":
		end := g.label("sc")
		l, err := g.genExpr(e.l)
		if err != nil {
			return 0, err
		}
		if err := g.bool01(l, vaxlike.BNE, e.line); err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: vaxlike.TST, Src: vaxlike.Reg(l)})
		if e.op == "&&" {
			g.branch(vaxlike.BEQ, end)
		} else {
			g.branch(vaxlike.BNE, end)
		}
		g.depth--
		r, err := g.genExpr(e.r)
		if err != nil {
			return 0, err
		}
		if err := g.bool01(r, vaxlike.BNE, e.line); err != nil {
			return 0, err
		}
		g.mark(end)
		return r, nil
	}
	panic("vaxgen: unknown operator " + e.op)
}

// bool01cc converts the current condition codes into 0/1 in r, taking 1
// when branching on op would be taken.
func (g *vaxGen) bool01cc(r uint8, op vaxlike.Op) error {
	one := g.label("c1")
	end := g.label("ce")
	g.branch(op, one)
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(0), Dst: vaxlike.Reg(r)})
	g.branch(vaxlike.BR, end)
	g.mark(one)
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Lit(1), Dst: vaxlike.Reg(r)})
	g.mark(end)
	return nil
}

func (g *vaxGen) genVaxCall(e callExpr) (uint8, error) {
	switch e.name {
	case "cons":
		a, err := g.genExpr(e.args[0])
		if err != nil {
			return 0, err
		}
		b, err := g.genExpr(e.args[1])
		if err != nil {
			return 0, err
		}
		r, err := g.push(e.line)
		if err != nil {
			return 0, err
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Abs(vaxHPAddr), Dst: vaxlike.Reg(r)})
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(a), Dst: vaxlike.Disp(r, 0)})
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(b), Dst: vaxlike.Disp(r, 1)})
		g.emit(vaxlike.Instr{Op: vaxlike.ADD, Src: vaxlike.Lit(2), Dst: vaxlike.Abs(vaxHPAddr)})
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(r), Dst: vaxlike.Reg(a)})
		g.depth -= 2
		return a, nil
	case "car", "cdr":
		r, err := g.genExpr(e.args[0])
		if err != nil {
			return 0, err
		}
		off := int32(0)
		if e.name == "cdr" {
			off = 1
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Disp(r, off), Dst: vaxlike.Reg(r)})
		return r, nil
	case "setcar", "setcdr":
		p, err := g.genExpr(e.args[0])
		if err != nil {
			return 0, err
		}
		v, err := g.genExpr(e.args[1])
		if err != nil {
			return 0, err
		}
		off := int32(0)
		if e.name == "setcdr" {
			off = 1
		}
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(v), Dst: vaxlike.Disp(p, off)})
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(v), Dst: vaxlike.Reg(p)})
		g.depth--
		return p, nil
	case "itof", "ftoi", "fadd", "fsub", "fmul", "fdiv", "flt", "feq":
		return 0, errf(e.line, "the CISC baseline does not model the FPU benchmarks")
	}
	live := g.depth
	sp := uint8(vaxlike.RegSP)
	if live > 0 {
		g.emit(vaxlike.Instr{Op: vaxlike.SUB, Src: vaxlike.Lit(int32(live)), Dst: vaxlike.Reg(sp)})
		for i := 0; i < live; i++ {
			g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(g.reg(i)), Dst: vaxlike.Disp(sp, int32(i))})
		}
	}
	g.depth = 0
	for _, a := range e.args {
		if _, err := g.genExpr(a); err != nil {
			return 0, err
		}
	}
	for i := range e.args {
		g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(g.reg(i)), Dst: vaxlike.Reg(uint8(vaxArgBase + i))})
	}
	g.jsr("f_" + e.name)
	if live > 0 {
		for i := 0; i < live; i++ {
			g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Disp(sp, int32(i)), Dst: vaxlike.Reg(g.reg(i))})
		}
		g.emit(vaxlike.Instr{Op: vaxlike.ADD, Src: vaxlike.Lit(int32(live)), Dst: vaxlike.Reg(sp)})
	}
	g.depth = live
	r, err := g.push(e.line)
	if err != nil {
		return 0, err
	}
	g.emit(vaxlike.Instr{Op: vaxlike.MOV, Src: vaxlike.Reg(vaxlike.RegRV), Dst: vaxlike.Reg(r)})
	return r, nil
}
