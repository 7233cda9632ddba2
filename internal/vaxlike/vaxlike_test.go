package vaxlike

import (
	"math"
	"strings"
	"testing"
)

func run(t *testing.T, code []Instr) (*Machine, string) {
	t.Helper()
	var sb strings.Builder
	m := New(code, &sb)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, sb.String()
}

func TestBasicOps(t *testing.T) {
	m, out := run(t, []Instr{
		{Op: MOV, Src: Lit(5), Dst: Reg(1)},
		{Op: ADD, Src: Lit(3), Dst: Reg(1)},
		{Op: MUL, Src: Lit(2), Dst: Reg(1)},
		{Op: SUB, Src: Lit(1), Dst: Reg(1)},
		{Op: DIV, Src: Lit(5), Dst: Reg(1)},
		{Op: PRNT, Src: Reg(1)},
		{Op: HALT},
	})
	if out != "3\n" {
		t.Fatalf("output %q", out)
	}
	if m.Stats.Instructions != 7 {
		t.Fatalf("instructions %d", m.Stats.Instructions)
	}
}

func TestMemoryOperands(t *testing.T) {
	m, _ := run(t, []Instr{
		{Op: MOV, Src: Lit(10), Dst: Abs(100)},
		{Op: ADD, Src: Lit(7), Dst: Abs(100)}, // read-modify-write memory
		{Op: MOV, Src: Lit(2), Dst: Reg(3)},
		{Op: MOV, Src: Lit(42), Dst: Idx(200, 3)}, // mem[202] = 42
		{Op: MOV, Src: Abs(100), Dst: Reg(1)},
		{Op: HALT},
	})
	if m.Mem(100) != 17 || m.Mem(202) != 42 || m.Reg(1) != 17 {
		t.Fatalf("memory ops wrong: %d %d %d", m.Mem(100), m.Mem(202), m.Reg(1))
	}
}

func TestConditionCodesAndBranches(t *testing.T) {
	// Count down from 5 using SUB's condition codes (no explicit CMP).
	m, out := run(t, []Instr{
		{Op: MOV, Src: Lit(5), Dst: Reg(1)},
		{Op: MOV, Src: Lit(0), Dst: Reg(2)},
		{Op: ADD, Src: Lit(1), Dst: Reg(2)}, // 2:
		{Op: SUB, Src: Lit(1), Dst: Reg(1)},
		{Op: BNE, Target: 2},
		{Op: PRNT, Src: Reg(2)},
		{Op: HALT},
	})
	if out != "5\n" {
		t.Fatalf("output %q", out)
	}
	if m.Stats.CCFromALU != 5 || m.Stats.CCFromCmp != 0 {
		t.Fatalf("cc source stats: alu=%d cmp=%d", m.Stats.CCFromALU, m.Stats.CCFromCmp)
	}
	if m.Stats.TakenBr != 4 {
		t.Fatalf("taken %d", m.Stats.TakenBr)
	}
}

func TestCmpBranch(t *testing.T) {
	_, out := run(t, []Instr{
		{Op: MOV, Src: Lit(3), Dst: Reg(1)},
		{Op: CMP, Src: Reg(1), Dst: Lit(4)}, // codes from 3-4 < 0
		{Op: BLT, Target: 5},
		{Op: PRNT, Src: Lit(0)},
		{Op: HALT},
		{Op: PRNT, Src: Lit(1)}, // 5:
		{Op: HALT},
	})
	if out != "1\n" {
		t.Fatalf("output %q", out)
	}
}

// TestCmpBranchAcrossOverflow: each conditional branch after CMP a, b
// takes exactly when the signed comparison of a and b says so, including
// pairs whose difference overflows int32.
func TestCmpBranchAcrossOverflow(t *testing.T) {
	pairs := [][2]int32{
		{3, 4}, {4, 3}, {5, 5}, {-1, 1},
		{math.MinInt32, 2200}, {2200, math.MinInt32}, // 2^31 wraps: (524288*4096) vs (40*55)
		{math.MaxInt32, -1}, {-1, math.MaxInt32},
		{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		for op, want := range map[Op]bool{
			BEQ: a == b, BNE: a != b, BLT: a < b, BLE: a <= b, BGT: a > b, BGE: a >= b,
		} {
			_, out := run(t, []Instr{
				{Op: MOV, Src: Lit(a), Dst: Reg(1)},
				{Op: CMP, Src: Reg(1), Dst: Lit(b)},
				{Op: op, Target: 5},
				{Op: PRNT, Src: Lit(0)},
				{Op: HALT},
				{Op: PRNT, Src: Lit(1)}, // 5:
				{Op: HALT},
			})
			if got := out == "1\n"; got != want {
				t.Errorf("cmp %d, %d; %s taken = %v, want %v", a, b, op, got, want)
			}
		}
	}
}

func TestJsrRsb(t *testing.T) {
	m, out := run(t, []Instr{
		{Op: JSR, Target: 3},
		{Op: PRNT, Src: Reg(0)},
		{Op: HALT},
		{Op: MOV, Src: Lit(99), Dst: Reg(0)}, // 3: subroutine
		{Op: RSB},
	})
	if out != "99\n" {
		t.Fatalf("output %q", out)
	}
	if m.Stats.Calls != 1 {
		t.Fatal("call not counted")
	}
}

func TestShift(t *testing.T) {
	m, _ := run(t, []Instr{
		{Op: MOV, Src: Lit(3), Dst: Reg(1)},
		{Op: ASH, Src: Lit(4), Dst: Reg(1)}, // 48
		{Op: MOV, Src: Lit(-64), Dst: Reg(2)},
		{Op: ASH, Src: Lit(-2), Dst: Reg(2)}, // -16 arithmetic
		{Op: HALT},
	})
	if m.Reg(1) != 48 || m.Reg(2) != -16 {
		t.Fatalf("shift results %d %d", m.Reg(1), m.Reg(2))
	}
}

func TestCycleCosts(t *testing.T) {
	// A register-only MOV is cheaper than a memory-memory MOV; MUL is far
	// more expensive than ADD.
	cost := func(in Instr) uint64 {
		m := New([]Instr{in, {Op: HALT}}, nil)
		if err := m.Run(10); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Cycles
	}
	regMov := cost(Instr{Op: MOV, Src: Reg(1), Dst: Reg(2)})
	memMov := cost(Instr{Op: MOV, Src: Abs(10), Dst: Abs(20)})
	add := cost(Instr{Op: ADD, Src: Reg(1), Dst: Reg(2)})
	mul := cost(Instr{Op: MUL, Src: Reg(1), Dst: Reg(2)})
	if memMov <= regMov {
		t.Fatal("memory operands should cost more")
	}
	if mul <= add+20 {
		t.Fatal("multiply should be microcode-expensive")
	}
}

// TestDivideByZero: a zero divisor gives quotient 0 and remainder the
// dividend, as tinyc's MIPS-X runtime does.
func TestDivideByZero(t *testing.T) {
	m, _ := run(t, []Instr{
		{Op: MOV, Src: Lit(7), Dst: Reg(1)},
		{Op: DIV, Src: Lit(0), Dst: Reg(1)},
		{Op: MOV, Src: Lit(-7), Dst: Reg(2)},
		{Op: MOD, Src: Lit(0), Dst: Reg(2)},
		{Op: HALT},
	})
	if m.Reg(1) != 0 {
		t.Fatalf("div by zero gave %d", m.Reg(1))
	}
	if m.Reg(2) != -7 {
		t.Fatalf("mod by zero gave %d, want the dividend", m.Reg(2))
	}
}

func TestRunLimit(t *testing.T) {
	m := New([]Instr{{Op: BR, Target: 0}}, nil)
	if err := m.Run(100); err == nil {
		t.Fatal("expected limit error")
	}
}
