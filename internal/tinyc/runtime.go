package tinyc

// Runtime library, in the same naive assembly the compiler emits (the
// reorganizer schedules it together with user code). Multiplication and
// division lower to the MD-register step instructions, 32 steps per
// operation — multiply and divide really were this expensive on MIPS-X,
// which is why the compiler only calls these when the program asks for
// them.
//
// Sign handling is branchless: |x| = (x ^ m) - m with m = -(x<0), and the
// result is conditionally negated the same way. This keeps the hot multiply
// path free of hard-to-fill branches, a standard trick of the period.

// steps emits the 32-step multiply/divide core as text.
func steps(op string) string {
	s := ""
	for i := 0; i < 32; i++ {
		s += "\t" + op + " r5, r5, r4\n"
	}
	return s
}

// absPair emits the branchless |r3|,|r4| sequence leaving the operand sign
// bits in r7 and r8.
const absPair = `
	setlt r7, r3, r0
	subu r10, r0, r7
	xor r3, r3, r10
	subu r3, r3, r10
	setlt r8, r4, r0
	subu r11, r0, r8
	xor r4, r4, r11
	subu r4, r4, r11
`

// negByFlag negates r2 when flag register f is 1, branchlessly.
func negByFlag(f string) string {
	return "\tsubu r10, r0, " + f + "\n\txor r2, r2, r10\n\tsubu r2, r2, r10\n"
}

// mulRuntime: r2 = r3 * r4 (signed). Low 32 bits of the product, matching
// two's-complement wraparound, so the sign pass works on magnitudes.
var mulRuntime = `
__mul:` + absPair + `	xor r9, r7, r8
	mots md, r3
	add r5, r0, r0
` + steps("mstep") + `	movs r2, md
` + negByFlag("r9") + `	ret
`

// divRuntime: __div: r2 = r3 / r4; __mod: r2 = r3 % r4 (signed, truncating;
// remainder takes the dividend's sign). A zero divisor gives quotient 0 and
// remainder the dividend (the hardware dstep simply never subtracts).
var divRuntime = `
__div:` + absPair + `	xor r9, r7, r8
	mots md, r3
	add r5, r0, r0
` + steps("dstep") + `	movs r2, md
` + negByFlag("r9") + `	ret

__mod:` + absPair + `	mots md, r3
	add r5, r0, r0
` + steps("dstep") + `	mov r2, r5
` + negByFlag("r7") + `	ret
`
