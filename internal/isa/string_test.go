package isa

import (
	"fmt"
	"math/rand"
	"testing"
)

// refString is the fmt-based disassembler Append replaced, kept as the
// reference its text must equal.
func refString(in Instruction) string {
	reg := func(r Reg) string {
		switch r {
		case RegZero:
			return "r0"
		case RegSP:
			return "sp"
		case RegFP:
			return "fp"
		case RegRA:
			return "ra"
		case RegGP:
			return "gp"
		default:
			return fmt.Sprintf("r%d", r)
		}
	}
	name := func(names []string, i int, unknown string) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("%s%d", unknown, i)
	}
	mem := name(memNames[:], int(in.Mem), "mem?")
	comp := name(compNames[:], int(in.Comp), "comp?")
	spec := name(specNames[:], int(in.Func), "spec?")
	switch in.Class {
	case ClassMem:
		switch in.Mem {
		case MemLd, MemSt, MemLdf, MemStf:
			return fmt.Sprintf("%s %s, %d(%s)", mem, reg(in.Rd), in.Off, reg(in.Rs1))
		default:
			return fmt.Sprintf("%s %s, c%d, %d(%s)", mem, reg(in.Rd),
				in.CoprocNum(), in.Off&0x3FFF, reg(in.Rs1))
		}
	case ClassBranch:
		sq := ""
		if in.Squash {
			sq = ".sq"
		}
		return fmt.Sprintf("%s%s %s, %s, %d", condNames[in.Cond&7], sq, reg(in.Rs1), reg(in.Rs2), in.Off)
	case ClassCompute:
		switch in.Comp {
		case CompSh:
			return fmt.Sprintf("sh %s, %s, %s, %d", reg(in.Rd), reg(in.Rs1), reg(in.Rs2), in.Func&31)
		case CompMovs:
			return fmt.Sprintf("movs %s, %s", reg(in.Rd), spec)
		case CompMots:
			return fmt.Sprintf("mots %s, %s", spec, reg(in.Rs1))
		case CompTrap:
			return fmt.Sprintf("trap %d", in.Func)
		case CompJpc, CompJpcrs:
			return comp
		default:
			if in.IsNop() {
				return "nop"
			}
			return fmt.Sprintf("%s %s, %s, %s", comp, reg(in.Rd), reg(in.Rs1), reg(in.Rs2))
		}
	case ClassComputeImm:
		switch in.Imm {
		case ImmJspci:
			return fmt.Sprintf("jspci %s, %d(%s)", reg(in.Rd), in.Off, reg(in.Rs1))
		default:
			return fmt.Sprintf("%s %s, %s, %d", name(immNames[:], int(in.Imm), "imm?"),
				reg(in.Rd), reg(in.Rs1), in.Off)
		}
	}
	return fmt.Sprintf("?class%d", in.Class)
}

// TestAppendMatchesReference: String and Append render exactly the
// reference text for 1M seeded random words, and for hand-built
// instructions whose fields no decoded word reaches.
func TestAppendMatchesReference(t *testing.T) {
	check := func(in Instruction) {
		t.Helper()
		want := refString(in)
		if got := in.String(); got != want {
			t.Fatalf("%+v: String %q, reference %q", in, got, want)
		}
		if got := string(in.Append([]byte("> "))); got != "> "+want {
			t.Fatalf("%+v: Append %q, reference %q", in, got, want)
		}
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 1_000_000; i++ {
		check(Decode(Word(r.Uint32())))
	}
	for _, in := range []Instruction{
		{Class: 7},
		{Class: ClassMem, Mem: 200, Rd: 40, Rs1: 255, Off: -5},
		{Class: ClassCompute, Comp: 99, Rd: 33, Rs1: RegGP, Rs2: RegRA},
		{Class: ClassCompute, Comp: CompMovs, Rd: RegSP, Func: 511},
		{Class: ClassComputeImm, Imm: 9, Rd: RegFP, Off: OffsetMin},
		{Class: ClassBranch, Cond: 15, Squash: true, Off: DispMax},
		Nop(),
	} {
		check(in)
	}
}

// TestAppendReusesBuffer: formatting into a buffer with room allocates
// nothing, which is what lets the tracer name every pipeline span.
func TestAppendReusesBuffer(t *testing.T) {
	in := Decode(Instruction{Class: ClassMem, Mem: MemLdc, Rd: 3, Rs1: RegSP, Off: CoprocOff(2, 77)}.Encode())
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = in.Append(buf[:0]) }); n != 0 {
		t.Fatalf("Append allocated %v times per call", n)
	}
}
