package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Image {
	t.Helper()
	im, err := AssembleSource(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

func TestBasicInstructions(t *testing.T) {
	im := mustAssemble(t, `
		add  r1, r2, r3
		sub  r4, r5, r6
		and  r7, r8, r9
		ld   r1, 4(sp)
		st   r1, -4(fp)
		addi r1, r0, 100
		beq  r1, r2, 2
		sh   r3, r4, r5, 7
	`)
	want := []string{
		"add r1, r2, r3",
		"sub r4, r5, r6",
		"and r7, r8, r9",
		"ld r1, 4(sp)",
		"st r1, -4(fp)",
		"addi r1, r0, 100",
		"beq r1, r2, 2",
		"sh r3, r4, r5, 7",
	}
	if len(im.Words) != len(want) {
		t.Fatalf("got %d words, want %d", len(im.Words), len(want))
	}
	for i, w := range want {
		got := isa.Decode(im.Words[i]).String()
		if got != w {
			t.Errorf("word %d: %q, want %q", i, got, w)
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	im := mustAssemble(t, `
	start:
		addi r1, r0, 10
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		nop
		nop
		b    start
		nop
		nop
	`)
	if im.Symbols["start"] != 0 || im.Symbols["loop"] != 1 {
		t.Fatalf("symbols wrong: %v", im.Symbols)
	}
	br := isa.Decode(im.Words[2])
	if !br.IsBranch() || br.Off != -1 {
		t.Errorf("bne displacement: got %d, want -1", br.Off)
	}
	b := isa.Decode(im.Words[5])
	if b.Cond != isa.CondEq || b.Rs1 != 0 || b.Rs2 != 0 || b.Off != -5 {
		t.Errorf("b expansion wrong: %v (off %d)", b, b.Off)
	}
}

func TestSquashSuffix(t *testing.T) {
	im := mustAssemble(t, `
	top:	bne.sq r1, r2, top
		nop
	`)
	in := isa.Decode(im.Words[0])
	if !in.Squash || in.Cond != isa.CondNe {
		t.Errorf("squash bit lost: %v", in)
	}
}

func TestLiExpansion(t *testing.T) {
	// Small constant: one addi.
	im := mustAssemble(t, "li r1, 42")
	if len(im.Words) != 1 {
		t.Fatalf("small li used %d words", len(im.Words))
	}
	// Negative small.
	im = mustAssemble(t, "li r1, -100")
	in := isa.Decode(im.Words[0])
	if in.Off != -100 {
		t.Errorf("li -100 encoded %d", in.Off)
	}
	// 0xFFFFFFFF is -1 signed and must still be a single addi.
	stmts := ExpandLi(1, 0xFFFFFFFF, 0)
	if len(stmts) != 1 || stmts[0].In.Off != -1 {
		t.Errorf("li 0xFFFFFFFF should be one addi of -1, got %v", stmts)
	}
	// Large constant: lhi + addiu; verify the arithmetic identity.
	for _, v := range []uint32{0x12345678, 0x80000000, 0x7FFFFFFF, 1 << 17} {
		stmts := ExpandLi(1, v, 0)
		if len(stmts) != 2 {
			t.Fatalf("li %#x used %d instructions", v, len(stmts))
		}
		hi := stmts[0].In.Off
		lo := stmts[1].In.Off
		got := uint32(hi<<15) + uint32(lo)
		if got != v {
			t.Errorf("li %#x reconstructs to %#x (hi %d lo %d)", v, got, hi, lo)
		}
		if lo < 0 || lo > 0x7FFF {
			t.Errorf("li %#x low part %d outside [0,2^15)", v, lo)
		}
	}
}

func TestCoprocessorSyntax(t *testing.T) {
	im := mustAssemble(t, `
		ldc r1, c3, 5(r2)
		stc r4, c2, 9(r0)
		cpw c7, 0x3FFF(r0)
		ldf f3, 8(sp)
		stf f15, 0(r1)
	`)
	ldc := isa.Decode(im.Words[0])
	if ldc.Mem != isa.MemLdc || ldc.CoprocNum() != 3 || ldc.Off&0x3FFF != 5 || ldc.Rs1 != 2 || ldc.Rd != 1 {
		t.Errorf("ldc wrong: %+v", ldc)
	}
	cpw := isa.Decode(im.Words[2])
	if cpw.Mem != isa.MemCpw || cpw.CoprocNum() != 7 || cpw.Off&0x3FFF != 0x3FFF {
		t.Errorf("cpw wrong: %+v", cpw)
	}
	ldf := isa.Decode(im.Words[3])
	if ldf.Mem != isa.MemLdf || ldf.Rd != 3 || ldf.Off != 8 {
		t.Errorf("ldf wrong: %+v", ldf)
	}
}

func TestPseudoInstructions(t *testing.T) {
	im := mustAssemble(t, `
	f:	mov r1, r2
		call f
		ret
		halt
		putw r3
		putc r4
		sll r5, r6, 4
		srl r7, r8, 4
	`)
	mov := isa.Decode(im.Words[0])
	if mov.Comp != isa.CompAdd || mov.Rd != 1 || mov.Rs1 != 2 || mov.Rs2 != 0 {
		t.Errorf("mov wrong: %v", mov)
	}
	call := isa.Decode(im.Words[1])
	if call.Imm != isa.ImmJspci || call.Rd != isa.RegRA || call.Off != 0 {
		t.Errorf("call wrong: %v", call)
	}
	ret := isa.Decode(im.Words[2])
	if ret.Imm != isa.ImmJspci || ret.Rd != 0 || ret.Rs1 != isa.RegRA {
		t.Errorf("ret wrong: %v", ret)
	}
	halt := isa.Decode(im.Words[3])
	if halt.Mem != isa.MemCpw || halt.CoprocNum() != SysCoproc || halt.Off&0x3FFF != CmdHalt {
		t.Errorf("halt wrong: %v", halt)
	}
	putw := isa.Decode(im.Words[4])
	if putw.Mem != isa.MemStc || putw.Rd != 3 || putw.CoprocNum() != SysCoproc {
		t.Errorf("putw wrong: %v", putw)
	}
	sll := isa.Decode(im.Words[6])
	if sll.Comp != isa.CompSh || sll.Rs1 != 6 || sll.Rs2 != 0 || sll.Func != 28 {
		t.Errorf("sll wrong: %+v", sll)
	}
	srl := isa.Decode(im.Words[7])
	if srl.Comp != isa.CompSh || srl.Rs1 != 0 || srl.Rs2 != 8 || srl.Func != 4 {
		t.Errorf("srl wrong: %+v", srl)
	}
}

func TestSraExpansion(t *testing.T) {
	im := mustAssemble(t, "sra r1, r2, 3")
	if len(im.Words) != 3 {
		t.Fatalf("sra used %d instructions, want 3", len(im.Words))
	}
	if _, err := AssembleSource("sra r1, r1, 3", 0); err == nil {
		t.Error("sra with rd==rs should be rejected")
	}
}

func TestDataDirectives(t *testing.T) {
	im := mustAssemble(t, `
		nop
	data:	.word 1, 2, 0xFF, -1
	buf:	.space 3
	end:	.word 'A', '\n'
	`)
	if im.Symbols["data"] != 1 || im.Symbols["buf"] != 5 || im.Symbols["end"] != 8 {
		t.Fatalf("symbols wrong: %v", im.Symbols)
	}
	if im.Words[3] != 0xFF || im.Words[4] != 0xFFFFFFFF {
		t.Errorf("word values wrong: %v", im.Words[1:5])
	}
	if im.Words[8] != 'A' || im.Words[9] != '\n' {
		t.Errorf("char literals wrong: %v", im.Words[8:10])
	}
	if im.IsInstr[0] != true || im.IsInstr[1] != false {
		t.Error("IsInstr tracking wrong")
	}
}

func TestSymbolOperands(t *testing.T) {
	im := mustAssemble(t, `
		la  r1, tab
		ld  r2, tab(r0)
		jspci ra, entry(r0)
	entry:	nop
	tab:	.word 7
	`)
	la := isa.Decode(im.Words[0])
	if la.Off != int32(im.Symbols["tab"]) {
		t.Errorf("la resolved to %d, want %d", la.Off, im.Symbols["tab"])
	}
	ld := isa.Decode(im.Words[1])
	if ld.Off != int32(im.Symbols["tab"]) {
		t.Errorf("ld sym resolved to %d", ld.Off)
	}
	if isa.Word(isa.Decode(im.Words[2]).Off) != im.Symbols["entry"] {
		t.Error("jspci target wrong")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",          // wrong arity
		"ld r1, 4(r99)",       // bad register
		"beq r1, r2, missing", // undefined label
		"x: nop\nx: nop",      // duplicate label
		"trap 9999",           // out of range
		"ldc r1, c9, 0(r0)",   // bad coprocessor
		"stc r1, c1, 99999(r0)",
		"sh r1, r2, r3, 45",
		"li r1, bananas",
	}
	for _, src := range cases {
		if _, err := AssembleSource(src, 0); err == nil {
			t.Errorf("no error for %q", src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("error for %q is %T, want *Error", src, err)
		}
	}
}

func TestBranchRangeCheck(t *testing.T) {
	var b strings.Builder
	b.WriteString("beq r0, r0, far\n")
	for i := 0; i < isa.DispMax+2; i++ {
		b.WriteString("nop\n")
	}
	b.WriteString("far: nop\n")
	if _, err := AssembleSource(b.String(), 0); err == nil {
		t.Error("out-of-range branch accepted")
	}
}

func TestDisassemblyReassembles(t *testing.T) {
	src := `
		add  r1, r2, r3
		ld   r4, -17(r5)
		bne.sq r1, r4, 3
		jspci ra, 100(r0)
		addi r9, r9, -1
		sh   r1, r2, r3, 13
		movs r1, psw
		mots md, r2
		trap 5
		ldc r1, c2, 33(r3)
	`
	im := mustAssemble(t, src)
	var back strings.Builder
	for _, w := range im.Words {
		back.WriteString(isa.Decode(w).String())
		back.WriteByte('\n')
	}
	im2 := mustAssemble(t, back.String())
	for i := range im.Words {
		if im.Words[i] != im2.Words[i] {
			t.Errorf("word %d: %08x reassembled as %08x (%s)", i, im.Words[i], im2.Words[i],
				isa.Decode(im.Words[i]))
		}
	}
}

func TestListing(t *testing.T) {
	im := mustAssemble(t, "main: nop\n.word 5")
	l := Listing(im)
	if !strings.Contains(l, "main:") || !strings.Contains(l, "nop") || !strings.Contains(l, ".word") {
		t.Errorf("listing incomplete:\n%s", l)
	}
}

func TestBaseOffsetLayout(t *testing.T) {
	im, err := AssembleSource("x: nop\ny: .word 9", 100)
	if err != nil {
		t.Fatal(err)
	}
	if im.Symbols["x"] != 100 || im.Symbols["y"] != 101 {
		t.Fatalf("base-relative symbols wrong: %v", im.Symbols)
	}
	if im.Instr(100).String() != "nop" {
		t.Error("Instr accessor wrong")
	}
}

// boundsCases are layouts Assemble must refuse before allocating the image:
// each names the source, the base, and the line and message of the error.
var boundsCases = []struct {
	name, src string
	base      isa.Word
	line      int
	msg       string
}{
	{"huge space", ".space 2147483647", 0, 1, "outside 0..4194304 words"},
	{"space past 32 bits", "nop\n.space 99999999999", 0, 2, "outside 0..4194304 words"},
	{"cumulative space", ".space 3000000\nnop\n.space 3000000", 0, 3, "image exceeds 4194304 words"},
	{"wrapping base", "main: nop\nhalt", 0xFFFFFFFF, 2, "wraps past the top"},
	{"space wraps", ".space 16", 0xFFFFFFF8, 1, "wraps past the top"},
}

// TestImageBounds: an image above MaxImageWords, a .space above it, and an
// image that would wrap past the top of the 32-bit word address space are
// errors on the line that crosses the bound; the largest image that fits
// at the top of the address space is accepted.
func TestImageBounds(t *testing.T) {
	for _, tc := range boundsCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AssembleSource(tc.src, tc.base)
			ae, ok := err.(*Error)
			if !ok || ae.Line != tc.line || !strings.Contains(ae.Msg, tc.msg) {
				t.Fatalf("got %v; want an asm error on line %d containing %q", err, tc.line, tc.msg)
			}
		})
	}
	im, err := AssembleSource("main: nop\nhalt", 0xFFFFFFFE)
	if err != nil || len(im.Words) != 2 || im.Symbols["main"] != 0xFFFFFFFE {
		t.Fatalf("two words at the top of the address space: %v, %+v", err, im)
	}
}
