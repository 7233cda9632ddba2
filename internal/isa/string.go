package isa

import "strconv"

var memNames = [...]string{"ld", "st", "ldf", "stf", "ldc", "stc", "cpw"}
var condNames = [...]string{"beq", "bne", "blt", "ble", "bge", "bgt", "b?6", "b?7"}
var compNames = [...]string{
	"add", "sub", "addu", "subu", "and", "or", "xor", "sh",
	"mstep", "dstep", "movs", "mots", "trap", "jpc", "jpcrs",
	"setgt", "setlt", "seteq", "setovf",
}
var immNames = [...]string{"addi", "jspci", "lhi", "addiu"}
var specNames = [...]string{"psw", "pswold", "md", "pc0", "pc1", "pc2"}

// MemName returns the mnemonic for a memory-class op.
func MemName(op MemOp) string {
	if int(op) < len(memNames) {
		return memNames[op]
	}
	return "mem?" + strconv.Itoa(int(op))
}

// CondName returns the branch mnemonic for a condition.
func CondName(c Cond) string { return condNames[c&7] }

// CompName returns the mnemonic for a compute-class op.
func CompName(op CompOp) string {
	if int(op) < len(compNames) {
		return compNames[op]
	}
	return "comp?" + strconv.Itoa(int(op))
}

// ImmName returns the mnemonic for a compute-immediate op.
func ImmName(op ImmOp) string {
	if int(op) < len(immNames) {
		return immNames[op]
	}
	return "imm?" + strconv.Itoa(int(op))
}

// SpecName returns the name of a special register selector.
func SpecName(f uint16) string {
	if int(f) < len(specNames) {
		return specNames[f]
	}
	return "spec?" + strconv.Itoa(int(f))
}

// String renders the instruction in the assembler's input syntax, so that
// disassembled output can be re-assembled.
func (in Instruction) String() string {
	var b [48]byte
	return string(in.Append(b[:0]))
}

// Append appends the instruction's String text to dst. It allocates only to
// grow dst, so the tracer can name every pipeline span with it.
func (in Instruction) Append(dst []byte) []byte {
	switch in.Class {
	case ClassMem:
		dst = appendReg(append(append(dst, MemName(in.Mem)...), ' '), in.Rd)
		switch in.Mem {
		case MemLd, MemSt, MemLdf, MemStf:
			return appendDisp(append(dst, ", "...), in.Off, in.Rs1)
		default:
			// Coprocessor ops: show the coprocessor number and the low
			// 14 bits of the offset (the coprocessor's private command).
			dst = strconv.AppendUint(append(dst, ", c"...), uint64(in.CoprocNum()), 10)
			return appendDisp(append(dst, ", "...), in.Off&0x3FFF, in.Rs1)
		}
	case ClassBranch:
		dst = append(dst, CondName(in.Cond)...)
		if in.Squash {
			dst = append(dst, ".sq"...)
		}
		dst = appendReg(append(dst, ' '), in.Rs1)
		dst = appendReg(append(dst, ", "...), in.Rs2)
		return strconv.AppendInt(append(dst, ", "...), int64(in.Off), 10)
	case ClassCompute:
		switch in.Comp {
		case CompSh:
			dst = appendRegs(append(dst, "sh "...), in.Rd, in.Rs1, in.Rs2)
			return strconv.AppendUint(append(dst, ", "...), uint64(in.Func&31), 10)
		case CompMovs:
			dst = appendReg(append(dst, "movs "...), in.Rd)
			return append(append(dst, ", "...), SpecName(in.Func)...)
		case CompMots:
			dst = append(append(dst, "mots "...), SpecName(in.Func)...)
			return appendReg(append(dst, ", "...), in.Rs1)
		case CompTrap:
			return strconv.AppendUint(append(dst, "trap "...), uint64(in.Func), 10)
		case CompJpc, CompJpcrs:
			return append(dst, CompName(in.Comp)...)
		default:
			if in.IsNop() {
				return append(dst, "nop"...)
			}
			return appendRegs(append(append(dst, CompName(in.Comp)...), ' '), in.Rd, in.Rs1, in.Rs2)
		}
	case ClassComputeImm:
		switch in.Imm {
		case ImmJspci:
			dst = appendReg(append(dst, "jspci "...), in.Rd)
			return appendDisp(append(dst, ", "...), in.Off, in.Rs1)
		default:
			dst = appendReg(append(append(dst, ImmName(in.Imm)...), ' '), in.Rd)
			dst = appendReg(append(dst, ", "...), in.Rs1)
			return strconv.AppendInt(append(dst, ", "...), int64(in.Off), 10)
		}
	}
	return strconv.AppendUint(append(dst, "?class"...), uint64(in.Class), 10)
}

// appendRegs appends three comma-separated register operands.
func appendRegs(dst []byte, a, b, c Reg) []byte {
	dst = appendReg(dst, a)
	dst = appendReg(append(dst, ", "...), b)
	return appendReg(append(dst, ", "...), c)
}

// appendDisp appends a base-plus-displacement operand, off(rs).
func appendDisp(dst []byte, off int32, rs Reg) []byte {
	dst = strconv.AppendInt(dst, int64(off), 10)
	return append(appendReg(append(dst, '('), rs), ')')
}
