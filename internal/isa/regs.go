package isa

import "strconv"

// Software register conventions used by the assembler, the tinyc compiler
// and the examples. The hardware fixes only r0 = 0 (the paper: "The register
// file contains 31 general purpose registers and a hardwired constant zero
// register"); everything else is convention.
const (
	RegZero Reg = 0 // hardwired zero; also the place to write unwanted data
	RegRV   Reg = 2 // function return value
	RegA0   Reg = 3 // first argument
	RegA1   Reg = 4
	RegA2   Reg = 5
	RegA3   Reg = 6
	RegT0   Reg = 7 // caller-saved temporaries r7..r15
	RegT8   Reg = 15
	RegS0   Reg = 16 // callee-saved r16..r25
	RegS9   Reg = 25
	RegGP   Reg = 28 // global pointer (static data base)
	RegSP   Reg = 29 // stack pointer (grows down, word units)
	RegFP   Reg = 30 // frame pointer
	RegRA   Reg = 31 // return address (written by jspci)
)

// RegName returns the conventional assembly name for a register.
func RegName(r Reg) string {
	var b [4]byte
	return string(appendReg(b[:0], r))
}

// appendReg appends RegName(r) to dst.
func appendReg(dst []byte, r Reg) []byte {
	switch r {
	case RegSP:
		return append(dst, "sp"...)
	case RegFP:
		return append(dst, "fp"...)
	case RegRA:
		return append(dst, "ra"...)
	case RegGP:
		return append(dst, "gp"...)
	default:
		return strconv.AppendUint(append(dst, 'r'), uint64(r), 10)
	}
}

// ParseReg parses a register name: r0..r31 plus the aliases sp, fp, ra, gp,
// rv. It returns the register and true on success.
func ParseReg(s string) (Reg, bool) {
	switch s {
	case "sp":
		return RegSP, true
	case "fp":
		return RegFP, true
	case "ra":
		return RegRA, true
	case "gp":
		return RegGP, true
	case "rv":
		return RegRV, true
	}
	if len(s) >= 2 && s[0] == 'r' {
		n := 0
		for _, c := range s[1:] {
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
			if n >= NumRegs {
				return 0, false
			}
		}
		return Reg(n), true
	}
	return 0, false
}
