// Package asm implements a two-pass assembler and disassembler for the
// MIPS-X instruction set defined in internal/isa.
//
// The assembler has two layers. Parse turns source text into a symbolic
// statement list ([]Stmt) in which branch and jump targets are still label
// names; Assemble lays the statements out in memory and resolves the labels.
// The code reorganizer (internal/reorg) operates on the symbolic layer, so
// it can insert, move and delete instructions without manually patching
// displacements — exactly the role of the postpass reorganizer in the MIPS-X
// software system.
//
// Syntax (one statement per line; ';' and '#' start comments):
//
//	label:                       ; labels, may share a line with a statement
//	ld   rd, off(rs1)            ; off may be a decimal/hex number or a label
//	st   rd, off(rs1)
//	ldf  fN, off(rs1)            ; FPU register written as f0..f15
//	stf  fN, off(rs1)
//	ldc  rd, cN, cmd(rs1)        ; coprocessor N, 14-bit command field
//	stc  rd, cN, cmd(rs1)
//	cpw  cN, cmd(rs1)
//	beq[.sq] rs1, rs2, target    ; .sq = squash delay slots if branch not taken
//	bne/blt/ble/bge/bgt likewise
//	add/sub/addu/subu/and/or/xor rd, rs1, rs2
//	sh   rd, rs1, rs2, amt       ; funnel shift
//	mstep/dstep rd, rs1, rs2
//	setgt/setlt/seteq/setovf rd, rs1, rs2
//	movs rd, psw|pswold|md|pc0|pc1|pc2
//	mots psw|pswold|md|pc0|pc1|pc2, rs1
//	trap n        jpc        jpcrs
//	addi/addiu rd, rs1, imm      lhi rd, rs1, imm
//	jspci rd, off(rs1)
//	.word v, v, ...    .space N
//
// Pseudo-instructions (expanded by Parse into real instructions):
//
//	nop                          ; add r0, r0, r0
//	mov rd, rs                   ; add rd, rs, r0
//	li  rd, imm                  ; addi, or lhi+addiu for large constants
//	la  rd, label                ; addi rd, r0, label
//	b   target                   ; beq r0, r0, target
//	sll/srl/sra rd, rs, n        ; funnel-shift idioms
//	call label                   ; jspci ra, label(r0)
//	ret                          ; jspci r0, 0(ra)
//	halt                         ; cpw c7, coproc.CmdHalt(r0) (system coprocessor)
//	putw rs                      ; stc rs, c7, 0(r0)     (print word)
//	putc rs                      ; stc rs, c7, 1(r0)     (print character)
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// System-coprocessor (c7) command codes used by the pseudo-instructions.
// Coprocessor 7 is this reproduction's test/console device, standing in for
// the paper's off-chip environment.
const (
	SysCoproc  = 7
	CmdPutWord = 0
	CmdPutChar = 1
	CmdHalt    = 0x3FFF
)

// TargetKind says how a statement's symbolic Target resolves into the
// instruction's offset field.
type TargetKind uint8

const (
	TargetNone TargetKind = iota
	TargetRel             // branch: Off = target − statement address
	TargetAbs             // absolute word address in Off (la, call, ld sym(r0))
)

// Stmt is one assembled or data statement in symbolic form.
type Stmt struct {
	Labels []string // labels attached to this statement

	// For instruction statements, In holds the instruction with Off left
	// zero when Target is set.
	IsInstr bool
	In      isa.Instruction
	Target  string
	TKind   TargetKind

	// For data statements.
	Words []isa.Word // .word values
	Space int        // .space word count (zero-filled)

	Line int // source line, for error messages and listings
}

// Size returns the number of memory words the statement occupies.
func (s Stmt) Size() int {
	if s.IsInstr {
		return 1
	}
	return len(s.Words) + s.Space
}

// Image is an assembled memory image.
type Image struct {
	Base    isa.Word            // address of the first word
	Words   []isa.Word          // contiguous image starting at Base
	IsInstr []bool              // parallel to Words: true for instructions
	Symbols map[string]isa.Word // label → word address
	Lines   []int               // parallel to Words: source line (0 for data fill)
}

// Instr returns the decoded instruction at word address a.
func (im *Image) Instr(a isa.Word) isa.Instruction {
	return isa.Decode(im.Words[a-im.Base])
}

// Error is an assembler diagnostic carrying the source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse converts assembler source into symbolic statements.
func Parse(src string) ([]Stmt, error) {
	var stmts []Stmt
	var pending []string // labels waiting for the next statement
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		// Peel off any leading labels.
		for {
			line = strings.TrimSpace(line)
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t,()") {
				break
			}
			label := line[:i]
			if label == "" {
				return nil, errf(lineNo+1, "empty label")
			}
			pending = append(pending, label)
			line = line[i+1:]
		}
		if line == "" {
			continue
		}
		out, err := parseStmt(line, lineNo+1)
		if err != nil {
			return nil, err
		}
		out[0].Labels = pending
		pending = nil
		stmts = append(stmts, out...)
	}
	if len(pending) > 0 {
		// Trailing labels attach to an empty .space so they get an address.
		stmts = append(stmts, Stmt{Labels: pending, Space: 0})
	}
	return stmts, nil
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		return line[:i]
	}
	return line
}

// fields splits an operand list on commas, trimming whitespace.
func operands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseNum parses a decimal, 0x-hex, or character literal.
func parseNum(s string) (int64, bool) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == "\\n" {
			return '\n', true
		}
		if len(body) == 1 {
			return int64(body[0]), true
		}
		return 0, false
	}
	v, err := strconv.ParseInt(s, 0, 64)
	return v, err == nil
}

// parseAddr parses "off(reg)" or "sym(reg)" or bare "off"/"sym"; returns the
// base register, the numeric offset (if numeric) and the symbol (if not).
func parseAddr(s string, line int) (base isa.Reg, off int64, sym string, err error) {
	inner := s
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return 0, 0, "", errf(line, "malformed address %q", s)
		}
		regName := s[i+1 : len(s)-1]
		r, ok := isa.ParseReg(regName)
		if !ok {
			return 0, 0, "", errf(line, "bad base register %q", regName)
		}
		base = r
		inner = strings.TrimSpace(s[:i])
	}
	if inner == "" {
		return base, 0, "", nil
	}
	if v, ok := parseNum(inner); ok {
		return base, v, "", nil
	}
	return base, 0, inner, nil
}

func reg(s string, line int) (isa.Reg, error) {
	r, ok := isa.ParseReg(s)
	if !ok {
		return 0, errf(line, "bad register %q", s)
	}
	return r, nil
}

// fpuReg parses f0..f15, used by ldf/stf whose rd field names an FPU register.
func fpuReg(s string, line int) (isa.Reg, error) {
	if len(s) >= 2 && s[0] == 'f' {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < 16 {
			return isa.Reg(n), nil
		}
	}
	return 0, errf(line, "bad FPU register %q (want f0..f15)", s)
}

func specSel(s string, line int) (uint16, error) {
	switch s {
	case "psw":
		return isa.SpecPSW, nil
	case "pswold":
		return isa.SpecPSWold, nil
	case "md":
		return isa.SpecMD, nil
	case "pc0":
		return isa.SpecPC0, nil
	case "pc1":
		return isa.SpecPC1, nil
	case "pc2":
		return isa.SpecPC2, nil
	}
	return 0, errf(line, "bad special register %q", s)
}

var condByName = map[string]isa.Cond{
	"beq": isa.CondEq, "bne": isa.CondNe, "blt": isa.CondLt,
	"ble": isa.CondLe, "bge": isa.CondGe, "bgt": isa.CondGt,
}

var compByName = map[string]isa.CompOp{
	"add": isa.CompAdd, "sub": isa.CompSub, "addu": isa.CompAddu,
	"subu": isa.CompSubu, "and": isa.CompAnd, "or": isa.CompOr,
	"xor": isa.CompXor, "mstep": isa.CompMstep, "dstep": isa.CompDstep,
	"setgt": isa.CompSetGt, "setlt": isa.CompSetLt, "seteq": isa.CompSetEq,
	"setovf": isa.CompSetOvf,
}

var memByName = map[string]isa.MemOp{
	"ld": isa.MemLd, "st": isa.MemSt, "ldf": isa.MemLdf, "stf": isa.MemStf,
}

// parseStmt parses one statement, possibly expanding a pseudo-instruction
// into several statements.
func parseStmt(line string, n int) ([]Stmt, error) {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.TrimSpace(mnemonic)
	ops := operands(rest)
	one := func(in isa.Instruction, target string, tk TargetKind) []Stmt {
		return []Stmt{{IsInstr: true, In: in, Target: target, TKind: tk, Line: n}}
	}
	need := func(k int) error {
		if len(ops) != k {
			return errf(n, "%s wants %d operands, got %d", mnemonic, k, len(ops))
		}
		return nil
	}

	// Directives.
	switch mnemonic {
	case ".word":
		if len(ops) == 0 {
			return nil, errf(n, ".word wants at least one value")
		}
		ws := make([]isa.Word, len(ops))
		for i, o := range ops {
			v, ok := parseNum(o)
			if !ok {
				return nil, errf(n, "bad .word value %q", o)
			}
			ws[i] = isa.Word(uint32(v))
		}
		return []Stmt{{Words: ws, Line: n}}, nil
	case ".space":
		if err := need(1); err != nil {
			return nil, err
		}
		v, ok := parseNum(ops[0])
		if !ok || v < 0 {
			return nil, errf(n, "bad .space count %q", ops[0])
		}
		return []Stmt{{Space: int(v), Line: n}}, nil
	}

	// Branches, with optional ".sq" suffix.
	base := mnemonic
	squash := false
	if strings.HasSuffix(base, ".sq") {
		base, squash = base[:len(base)-3], true
	}
	if c, ok := condByName[base]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		r1, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		r2, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassBranch, Cond: c, Squash: squash, Rs1: r1, Rs2: r2}
		if v, ok := parseNum(ops[2]); ok {
			in.Off = int32(v)
			return one(in, "", TargetNone), nil
		}
		return one(in, ops[2], TargetRel), nil
	}
	if squash {
		return nil, errf(n, "unknown mnemonic %q", mnemonic)
	}

	switch mnemonic {
	case "ld", "st", "ldf", "stf":
		if err := need(2); err != nil {
			return nil, err
		}
		var rd isa.Reg
		var err error
		if mnemonic == "ldf" || mnemonic == "stf" {
			rd, err = fpuReg(ops[0], n)
		} else {
			rd, err = reg(ops[0], n)
		}
		if err != nil {
			return nil, err
		}
		b, off, sym, err := parseAddr(ops[1], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassMem, Mem: memByName[mnemonic], Rs1: b, Rd: rd, Off: int32(off)}
		if sym != "" {
			return one(in, sym, TargetAbs), nil
		}
		return one(in, "", TargetNone), nil

	case "ldc", "stc":
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		cp, err := coprocNum(ops[1], n)
		if err != nil {
			return nil, err
		}
		b, cmd, sym, err := parseAddr(ops[2], n)
		if err != nil {
			return nil, err
		}
		if sym != "" {
			return nil, errf(n, "coprocessor command must be numeric")
		}
		if cmd < 0 || cmd > 0x3FFF {
			return nil, errf(n, "coprocessor command %d outside 14-bit range", cmd)
		}
		op := isa.MemLdc
		if mnemonic == "stc" {
			op = isa.MemStc
		}
		in := isa.Instruction{Class: isa.ClassMem, Mem: op, Rs1: b, Rd: rd,
			Off: isa.CoprocOff(uint8(cp), uint16(cmd))}
		return one(in, "", TargetNone), nil

	case "cpw":
		if err := need(2); err != nil {
			return nil, err
		}
		cp, err := coprocNum(ops[0], n)
		if err != nil {
			return nil, err
		}
		b, cmd, sym, err := parseAddr(ops[1], n)
		if err != nil {
			return nil, err
		}
		if sym != "" || cmd < 0 || cmd > 0x3FFF {
			return nil, errf(n, "bad coprocessor command %q", ops[1])
		}
		in := isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw, Rs1: b,
			Off: isa.CoprocOff(uint8(cp), uint16(cmd))}
		return one(in, "", TargetNone), nil

	case "add", "sub", "addu", "subu", "and", "or", "xor",
		"mstep", "dstep", "setgt", "setlt", "seteq", "setovf":
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		r1, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		r2, err := reg(ops[2], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: compByName[mnemonic], Rd: rd, Rs1: r1, Rs2: r2}
		return one(in, "", TargetNone), nil

	case "sh":
		if err := need(4); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		r1, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		r2, err := reg(ops[2], n)
		if err != nil {
			return nil, err
		}
		amt, ok := parseNum(ops[3])
		if !ok || amt < 0 || amt > 31 {
			return nil, errf(n, "bad shift amount %q", ops[3])
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompSh, Rd: rd, Rs1: r1, Rs2: r2, Func: uint16(amt)}
		return one(in, "", TargetNone), nil

	case "movs":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		sel, err := specSel(ops[1], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMovs, Rd: rd, Func: sel}
		return one(in, "", TargetNone), nil

	case "mots":
		if err := need(2); err != nil {
			return nil, err
		}
		sel, err := specSel(ops[0], n)
		if err != nil {
			return nil, err
		}
		r1, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMots, Rs1: r1, Func: sel}
		return one(in, "", TargetNone), nil

	case "trap":
		if err := need(1); err != nil {
			return nil, err
		}
		v, ok := parseNum(ops[0])
		if !ok || v < 0 || int64(v) > isa.FuncMax {
			return nil, errf(n, "bad trap code %q", ops[0])
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompTrap, Func: uint16(v)}
		return one(in, "", TargetNone), nil

	case "jpc", "jpcrs":
		if err := need(0); err != nil {
			return nil, err
		}
		op := isa.CompJpc
		if mnemonic == "jpcrs" {
			op = isa.CompJpcrs
		}
		return one(isa.Instruction{Class: isa.ClassCompute, Comp: op}, "", TargetNone), nil

	case "addi", "addiu", "lhi":
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		r1, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		op := map[string]isa.ImmOp{"addi": isa.ImmAddi, "addiu": isa.ImmAddiu, "lhi": isa.ImmLhi}[mnemonic]
		in := isa.Instruction{Class: isa.ClassComputeImm, Imm: op, Rd: rd, Rs1: r1}
		if v, ok := parseNum(ops[2]); ok {
			in.Off = int32(v)
			return one(in, "", TargetNone), nil
		}
		return one(in, ops[2], TargetAbs), nil

	case "jspci":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		b, off, sym, err := parseAddr(ops[1], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmJspci, Rd: rd, Rs1: b, Off: int32(off)}
		if sym != "" {
			return one(in, sym, TargetAbs), nil
		}
		return one(in, "", TargetNone), nil
	}

	return parsePseudo(mnemonic, ops, n)
}

func coprocNum(s string, line int) (int, error) {
	if len(s) == 2 && s[0] == 'c' && s[1] >= '0' && s[1] <= '7' {
		return int(s[1] - '0'), nil
	}
	return 0, errf(line, "bad coprocessor %q (want c0..c7)", s)
}

// parsePseudo expands the pseudo-instructions.
func parsePseudo(mnemonic string, ops []string, n int) ([]Stmt, error) {
	one := func(in isa.Instruction, target string, tk TargetKind) []Stmt {
		return []Stmt{{IsInstr: true, In: in, Target: target, TKind: tk, Line: n}}
	}
	switch mnemonic {
	case "nop":
		if len(ops) != 0 {
			return nil, errf(n, "nop takes no operands")
		}
		return one(isa.Nop(), "", TargetNone), nil

	case "mov":
		if len(ops) != 2 {
			return nil, errf(n, "mov wants 2 operands")
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		rs, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		return one(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompAdd, Rd: rd, Rs1: rs}, "", TargetNone), nil

	case "li":
		if len(ops) != 2 {
			return nil, errf(n, "li wants 2 operands")
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		v, ok := parseNum(ops[1])
		if !ok || v < -1<<31 || v > 1<<32-1 {
			return nil, errf(n, "bad immediate %q", ops[1])
		}
		return ExpandLi(rd, uint32(v), n), nil

	case "la":
		if len(ops) != 2 {
			return nil, errf(n, "la wants 2 operands")
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		in := isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddi, Rd: rd}
		return one(in, ops[1], TargetAbs), nil

	case "b":
		if len(ops) != 1 {
			return nil, errf(n, "b wants 1 operand")
		}
		in := isa.Instruction{Class: isa.ClassBranch, Cond: isa.CondEq}
		return one(in, ops[0], TargetRel), nil

	case "sll", "srl", "sra":
		if len(ops) != 3 {
			return nil, errf(n, "%s wants 3 operands", mnemonic)
		}
		rd, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		rs, err := reg(ops[1], n)
		if err != nil {
			return nil, err
		}
		amt, ok := parseNum(ops[2])
		if !ok || amt < 0 || amt > 31 {
			return nil, errf(n, "bad shift amount %q", ops[2])
		}
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompSh, Rd: rd}
		switch mnemonic {
		case "srl": // funnel(0, rs) >> amt
			in.Rs2, in.Func = rs, uint16(amt)
		case "sll": // funnel(rs, 0) >> (32-amt); amt 0 is a plain move
			if amt == 0 {
				return one(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompAdd, Rd: rd, Rs1: rs}, "", TargetNone), nil
			}
			in.Rs1, in.Func = rs, uint16(32-amt)
		case "sra": // the funnel shifter wants the sign word in its high
			// input, which takes two extra operations to materialize —
			// the same cost the real funnel shifter paid.
			if rd == rs {
				return nil, errf(n, "sra needs distinct registers (expansion clobbers rd)")
			}
			return expandSra(rd, rs, uint(amt), n), nil
		}
		return one(in, "", TargetNone), nil

	case "call":
		if len(ops) != 1 {
			return nil, errf(n, "call wants 1 operand")
		}
		in := isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmJspci, Rd: isa.RegRA}
		return one(in, ops[0], TargetAbs), nil

	case "ret":
		if len(ops) != 0 {
			return nil, errf(n, "ret takes no operands")
		}
		in := isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmJspci, Rd: 0, Rs1: isa.RegRA}
		return one(in, "", TargetNone), nil

	case "halt":
		in := isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw, Off: isa.CoprocOff(SysCoproc, CmdHalt)}
		return one(in, "", TargetNone), nil

	case "putw", "putc":
		if len(ops) != 1 {
			return nil, errf(n, "%s wants 1 operand", mnemonic)
		}
		rs, err := reg(ops[0], n)
		if err != nil {
			return nil, err
		}
		cmd := CmdPutWord
		if mnemonic == "putc" {
			cmd = CmdPutChar
		}
		in := isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: rs,
			Off: isa.CoprocOff(SysCoproc, uint16(cmd))}
		return one(in, "", TargetNone), nil
	}
	return nil, errf(n, "unknown mnemonic %q", mnemonic)
}

// ExpandLi returns the statement sequence loading the 32-bit constant v into
// rd: a single addi when it fits the 17-bit immediate, otherwise lhi+addiu.
func ExpandLi(rd isa.Reg, v uint32, line int) []Stmt {
	sv := int32(v)
	if sv >= isa.OffsetMin && sv <= isa.OffsetMax {
		return []Stmt{{IsInstr: true, Line: line,
			In: isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddi, Rd: rd, Off: sv}}}
	}
	lo := int32(v & 0x7FFF)
	hi := (sv - lo) >> 15
	return []Stmt{
		{IsInstr: true, Line: line,
			In: isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmLhi, Rd: rd, Off: hi}},
		{IsInstr: true, Line: line,
			In: isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddiu, Rd: rd, Rs1: rd, Off: lo}},
	}
}

// expandSra emits the arithmetic-shift-right idiom: the funnel shifter needs
// the sign word in the high input, which takes a setlt to materialize the
// sign mask — the same two-operation cost the real funnel shifter paid for
// arithmetic shifts of variable sign.
func expandSra(rd, rs isa.Reg, amt uint, n int) []Stmt {
	// setlt rd, rs, r0   → rd = 1 if negative else 0
	// sub   rd, r0, rd   → rd = -1 if negative else 0 (sign mask)
	// sh    rd, rd, rs, amt
	mk := func(in isa.Instruction) Stmt { return Stmt{IsInstr: true, In: in, Line: n} }
	return []Stmt{
		mk(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompSetLt, Rd: rd, Rs1: rs}),
		mk(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompSubu, Rd: rd, Rs2: rd}),
		mk(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompSh, Rd: rd, Rs1: rd, Rs2: rs, Func: uint16(amt)}),
	}
}
