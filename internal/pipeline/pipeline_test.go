package pipeline

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/coproc"
	"repro/internal/isa"
)

// flat is a stall-free memory implementing both ports, isolating pipeline
// semantics from cache behaviour.
type flat struct {
	words []isa.Word
}

func (f *flat) at(a isa.Word) isa.Word {
	if int(a) < len(f.words) {
		return f.words[a]
	}
	return 0
}

func (f *flat) Fetch(a isa.Word) (isa.Word, int) { return f.at(a), 0 }
func (f *flat) Read(a isa.Word) (isa.Word, int)  { return f.at(a), 0 }
func (f *flat) Write(a, w isa.Word) int {
	for int(a) >= len(f.words) {
		f.words = append(f.words, 0)
	}
	f.words[a] = w
	return 0
}

type rig struct {
	cpu  *CPU
	mem  *flat
	con  *coproc.Console
	fpu  *coproc.FPU
	out  strings.Builder
	im   *asm.Image
	syms map[string]isa.Word
}

// build assembles src, loads it at 0, and wires a CPU with console and FPU.
// Execution starts at the "main" label if present, else at 0.
func build(t *testing.T, cfg Config, src string) *rig {
	t.Helper()
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	r := &rig{mem: &flat{words: append([]isa.Word(nil), im.Words...)}, im: im, syms: im.Symbols}
	r.con = &coproc.Console{Out: &r.out}
	r.fpu = coproc.NewFPU()
	var set coproc.Set
	set.Attach(1, r.fpu)
	set.Attach(7, r.con)
	cfg.CheckHazards = true
	r.cpu = New(cfg, r.mem, r.mem, &set)
	entry := isa.Word(0)
	if e, ok := im.Symbols["main"]; ok {
		entry = e
	}
	r.cpu.Reset(entry)
	return r
}

// run steps until halt or the cycle limit.
func (r *rig) run(t *testing.T, limit int) {
	t.Helper()
	for cycles := 0; !r.con.Halted; {
		cycles += r.cpu.Step()
		if cycles > limit {
			t.Fatalf("no halt within %d cycles (pc %#x)", limit, r.cpu.PC())
		}
	}
}

func (r *rig) noViolations(t *testing.T) {
	t.Helper()
	for _, v := range r.cpu.Violations {
		t.Errorf("interlock violation: %v", v)
	}
}

func TestStraightLineArithmeticWithBypass(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 5
		add  r2, r1, r1    ; distance 1: first-level bypass
		add  r3, r2, r1    ; distances 1 and 2
		sub  r4, r3, r1    ; 15-5
		xor  r5, r4, r3    ; 10^15
		halt
	`)
	r.run(t, 100)
	r.noViolations(t)
	c := r.cpu
	for i, want := range []isa.Word{5, 10, 15, 10, 10 ^ 15} {
		if got := c.Reg(isa.Reg(i + 1)); got != want {
			t.Errorf("r%d = %d, want %d", i+1, got, want)
		}
	}
}

func TestR0IsAlwaysZero(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r0, r0, 99
		add  r1, r0, r0
		halt
	`)
	r.run(t, 100)
	if r.cpu.Reg(0) != 0 || r.cpu.Reg(1) != 0 {
		t.Fatal("r0 not hardwired to zero")
	}
}

func TestLoadDelaySlotRespected(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	la r1, data
		ld r2, 0(r1)
		nop                ; load delay slot
		add r3, r2, r0
		halt
	data:	.word 1234
	`)
	r.run(t, 100)
	r.noViolations(t)
	if got := r.cpu.Reg(3); got != 1234 {
		t.Fatalf("r3 = %d, want 1234", got)
	}
}

func TestLoadDelayViolationUsesStaleValue(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	addi r2, r0, 7     ; old value of r2
		nop
		nop
		la r1, data
		ld r2, 0(r1)
		add r3, r2, r0     ; WRONG: uses r2 in the load delay slot
		halt
	data:	.word 1234
	`)
	r.run(t, 100)
	// The hardware supplies the stale value — no interlock.
	if got := r.cpu.Reg(3); got != 7 {
		t.Fatalf("r3 = %d, want stale 7", got)
	}
	if len(r.cpu.Violations) == 0 {
		t.Fatal("hazard checker missed the load-delay violation")
	}
	// After the delay, the register does hold the loaded value.
	if got := r.cpu.Reg(2); got != 1234 {
		t.Fatalf("r2 = %d, want 1234", got)
	}
}

func TestStoreAndReload(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	la  r1, buf
		addi r2, r0, 77
		st  r2, 0(r1)
		st  r2, 1(r1)
		ld  r3, 0(r1)
		nop
		add r4, r3, r0
		halt
	buf:	.space 2
	`)
	r.run(t, 100)
	r.noViolations(t)
	if r.cpu.Reg(4) != 77 {
		t.Fatalf("r4 = %d", r.cpu.Reg(4))
	}
	if r.mem.at(r.syms["buf"]+1) != 77 {
		t.Fatal("second store lost")
	}
}

func TestBranchTakenExecutesBothSlots(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 1
		nop
		beq r1, r1, target
		addi r2, r0, 11    ; slot 1: executes
		addi r3, r0, 22    ; slot 2: executes
		addi r4, r0, 33    ; skipped by the branch
	target:	halt
	`)
	r.run(t, 100)
	r.noViolations(t)
	c := r.cpu
	if c.Reg(2) != 11 || c.Reg(3) != 22 || c.Reg(4) != 0 {
		t.Fatalf("r2=%d r3=%d r4=%d", c.Reg(2), c.Reg(3), c.Reg(4))
	}
	if c.Stats.Branches != 1 || c.Stats.TakenBranches != 1 {
		t.Fatalf("branch stats: %+v", c.Stats)
	}
}

func TestSquashingBranchNotTakenSquashesSlots(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 1
		nop
		bne.sq r1, r1, away    ; predicted taken, does not go
		addi r2, r0, 11        ; squashed
		addi r3, r0, 22        ; squashed
		addi r4, r0, 33        ; executes
		halt
	away:	addi r5, r0, 99
		halt
	`)
	r.run(t, 100)
	c := r.cpu
	if c.Reg(2) != 0 || c.Reg(3) != 0 {
		t.Fatalf("slots not squashed: r2=%d r3=%d", c.Reg(2), c.Reg(3))
	}
	if c.Reg(4) != 33 || c.Reg(5) != 0 {
		t.Fatalf("fall-through path wrong: r4=%d r5=%d", c.Reg(4), c.Reg(5))
	}
	if c.Stats.SquashEvents != 1 || c.Stats.Squashed != 2 {
		t.Fatalf("squash stats: events=%d squashed=%d", c.Stats.SquashEvents, c.Stats.Squashed)
	}
	if c.Stats.BranchWasted != 2 {
		t.Fatalf("wasted slots = %d, want 2", c.Stats.BranchWasted)
	}
}

func TestSquashingBranchTakenExecutesSlots(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 1
		nop
		beq.sq r1, r1, target  ; predicted taken, goes
		addi r2, r0, 11        ; executes (squash only if don't go)
		addi r3, r0, 22        ; executes
		addi r4, r0, 33
	target:	halt
	`)
	r.run(t, 100)
	r.noViolations(t)
	c := r.cpu
	if c.Reg(2) != 11 || c.Reg(3) != 22 || c.Reg(4) != 0 {
		t.Fatalf("r2=%d r3=%d r4=%d", c.Reg(2), c.Reg(3), c.Reg(4))
	}
	if c.Stats.SquashEvents != 0 || c.Stats.Squashed != 0 {
		t.Fatalf("unexpected squash: %+v", c.Stats)
	}
	if c.Stats.BranchWasted != 0 {
		t.Fatalf("wasted = %d, want 0 (both slots useful)", c.Stats.BranchWasted)
	}
}

func TestBranchSlotNopAccounting(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 1
		nop
		beq r1, r1, target
		nop                ; wasted slot
		nop                ; wasted slot
	target:	halt
	`)
	r.run(t, 100)
	c := r.cpu
	if c.Stats.BranchSlotNops != 2 || c.Stats.BranchWasted != 2 {
		t.Fatalf("slot nops=%d wasted=%d, want 2,2", c.Stats.BranchSlotNops, c.Stats.BranchWasted)
	}
	if got := c.Stats.CyclesPerBranch(); got != 3.0 {
		t.Fatalf("cycles/branch = %v, want 3.0", got)
	}
}

func TestLoopCountsAndBackwardBranch(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 10
		addi r2, r0, 0
	loop:	addi r2, r2, 1
		addi r1, r1, -1
		bne.sq r1, r0, loop
		nop
		nop
		halt
	`)
	r.run(t, 500)
	c := r.cpu
	if c.Reg(2) != 10 {
		t.Fatalf("loop executed %d times", c.Reg(2))
	}
	// 10 branch resolutions: 9 taken (predicted), 1 not-taken (squash).
	if c.Stats.Branches != 10 || c.Stats.TakenBranches != 9 || c.Stats.SquashEvents != 1 {
		t.Fatalf("branch stats: %+v", c.Stats)
	}
}

func TestCallReturn(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	call fn
		addi r2, r0, 1    ; call slot 1
		addi r3, r0, 2    ; call slot 2
		putw r4
		halt
	fn:	addi r4, r0, 7
		ret
		nop
		nop
	`)
	r.run(t, 200)
	r.noViolations(t)
	if got := r.out.String(); got != "7\n" {
		t.Fatalf("output %q", got)
	}
	if r.cpu.Reg(2) != 1 || r.cpu.Reg(3) != 2 {
		t.Fatal("call delay slots did not execute")
	}
	if r.cpu.Stats.Jumps != 2 {
		t.Fatalf("jumps = %d, want 2", r.cpu.Stats.Jumps)
	}
}

func TestJspciReturnAddress(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	jspci r9, fn(r0)
		nop
		nop
		halt
	fn:	halt
	`)
	r.run(t, 100)
	// Return address = jump PC + 1 + 2 slots.
	want := r.syms["main"] + 3
	if got := r.cpu.Reg(9); got != want {
		t.Fatalf("return address %d, want %d", got, want)
	}
}

func TestShiftOps(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 1
		sll  r2, r1, 8     ; 256
		addi r3, r0, -16
		srl  r4, r3, 28    ; logical: 0xFFFFFFF0 >> 28 = 0xF
		addi r5, r0, -32
		sra  r6, r5, 2     ; arithmetic: -8
		halt
	`)
	r.run(t, 100)
	r.noViolations(t)
	c := r.cpu
	if c.Reg(2) != 256 {
		t.Errorf("sll: %d", c.Reg(2))
	}
	if c.Reg(4) != 0xF {
		t.Errorf("srl: %#x", c.Reg(4))
	}
	if int32(c.Reg(6)) != -8 {
		t.Errorf("sra: %d", int32(c.Reg(6)))
	}
}

func TestSetInstructions(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, -5
		addi r2, r0, 3
		setlt r3, r1, r2   ; 1
		setgt r4, r1, r2   ; 0
		seteq r5, r2, r2   ; 1
		halt
	`)
	r.run(t, 100)
	c := r.cpu
	if c.Reg(3) != 1 || c.Reg(4) != 0 || c.Reg(5) != 1 {
		t.Fatalf("set ops: %d %d %d", c.Reg(3), c.Reg(4), c.Reg(5))
	}
}

// multiplySrc computes r3:md = r1 * r2 (unsigned) with the real mstep
// sequence: MD holds the multiplier, 32 steps accumulate into r3.
const multiplySrc = `
main:	addi r1, r0, 0        ; patched by test via SetReg
	mots md, r1
	nop
	nop
	add r3, r0, r0
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	mstep r3, r3, r2
	movs r4, md
	halt
`

func TestMultiplySteps(t *testing.T) {
	cases := []struct{ a, b uint32 }{
		{3, 5}, {100000, 3000}, {0xFFFFFFFF, 0xFFFFFFFF}, {0, 12345},
		{1 << 31, 2}, {0x12345678, 0x9ABCDEF0},
	}
	for _, cs := range cases {
		r := build(t, DefaultConfig(), multiplySrc)
		// Patch the operands in after reset but before the mots commits:
		// r1 = multiplier, r2 = multiplicand.
		r.cpu.SetReg(2, cs.b)
		// Let the first addi run, then overwrite r1... simpler: just step
		// once and set registers directly (the addi writes 0 anyway at WB,
		// so set r1 after it retires by patching the instruction source).
		// Cleanest: run with r1 patched via the instruction stream.
		r.mem.words[r.syms["main"]] = isa.Instruction{
			Class: isa.ClassComputeImm, Imm: isa.ImmAddiu, Rd: 1, Off: 0}.Encode()
		r.cpu.SetReg(1, cs.a)
		// The addiu r1, r0, 0 would zero r1; replace with nop instead.
		r.mem.words[r.syms["main"]] = isa.Nop().Encode()
		r.run(t, 400)
		r.noViolations(t)
		want := uint64(cs.a) * uint64(cs.b)
		got := uint64(r.cpu.Reg(3))<<32 | uint64(r.cpu.Reg(4))
		if got != want {
			t.Errorf("%d*%d = %d, want %d", cs.a, cs.b, got, want)
		}
	}
}

func TestDivideSteps(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\tmots md, r1\n\tnop\n\tnop\n\tadd r3, r0, r0\n")
	for i := 0; i < 32; i++ {
		sb.WriteString("\tdstep r3, r3, r2\n")
	}
	sb.WriteString("\tmovs r4, md\n\thalt\n")
	cases := []struct{ a, b uint32 }{
		{17, 5}, {1000000, 7}, {0xFFFFFFFF, 3}, {5, 17}, {0, 9},
	}
	for _, cs := range cases {
		r := build(t, DefaultConfig(), sb.String())
		r.cpu.SetReg(1, cs.a)
		r.cpu.SetReg(2, cs.b)
		r.run(t, 400)
		r.noViolations(t)
		if q, rem := r.cpu.Reg(4), r.cpu.Reg(3); q != cs.a/cs.b || rem != cs.a%cs.b {
			t.Errorf("%d/%d: got q=%d r=%d, want q=%d r=%d", cs.a, cs.b, q, rem, cs.a/cs.b, cs.a%cs.b)
		}
	}
}

func TestConsoleOutput(t *testing.T) {
	r := build(t, DefaultConfig(), `
		addi r1, r0, 42
		putw r1
		addi r2, r0, 'A'
		putc r2
		halt
	`)
	r.run(t, 100)
	if got := r.out.String(); got != "42\nA" {
		t.Fatalf("output %q", got)
	}
}

func TestFPUThroughPipeline(t *testing.T) {
	// 3.0 + 1.5 via ldf/cpw/stf, then verify the stored bits.
	r := build(t, DefaultConfig(), `
	main:	la r1, data
		ldf f0, 0(r1)
		ldf f1, 1(r1)
		cpw c1, 1(r0)       ; FAdd f0, f1
		stf f0, 2(r1)
		ld  r2, 2(r1)
		nop
		putw r2
		halt
	data:	.word 0x40400000, 0x3FC00000
		.space 1
	`)
	r.run(t, 200)
	r.noViolations(t)
	if got := r.fpu.Float(0); got != 4.5 {
		t.Fatalf("f0 = %v, want 4.5", got)
	}
	if w := r.mem.at(r.syms["data"] + 2); w != 0x40900000 { // 4.5f
		t.Fatalf("stored bits %#x", w)
	}
	if r.cpu.Stats.FPMemOps != 3 {
		t.Fatalf("FP mem ops = %d, want 3", r.cpu.Stats.FPMemOps)
	}
}

func TestLdcLoadDelayAppliesToCoprocessorReads(t *testing.T) {
	// ldc is a register load: using its result in the next slot is a hazard.
	r := build(t, DefaultConfig(), `
	main:	addi r1, r0, 3
		stc r1, c1, 2816(r0)   ; FGetR: f0 := raw 3
		ldc r2, c1, 2816(r0)   ; r2 := raw f0
		add r3, r2, r0         ; HAZARD: ldc delay slot
		halt
	`)
	r.run(t, 100)
	if len(r.cpu.Violations) == 0 {
		t.Fatal("ldc load-delay violation not flagged")
	}
	if r.cpu.Reg(2) != 3 {
		t.Fatalf("ldc result %d", r.cpu.Reg(2))
	}
}

// TestDecodeRecord: the record carries the isa predicates' answers, and the
// zero record is word 0's, so a zeroed memo entry is valid as it stands.
func TestDecodeRecord(t *testing.T) {
	if d := decode(0); d != (dec{}) {
		t.Fatalf("decode(0) = %+v, want the zero record", d)
	}
	for _, tc := range []struct {
		in   isa.Instruction
		want dec
	}{
		{isa.Nop(), dec{nop: true}},
		{isa.Instruction{Class: isa.ClassMem, Mem: isa.MemLd, Rd: 3}, dec{dst: 3, load: true}},
		{isa.Instruction{Class: isa.ClassMem, Mem: isa.MemLdc, Rd: 4}, dec{dst: 4, load: true}},
		{isa.Instruction{Class: isa.ClassMem, Mem: isa.MemSt, Rd: 3}, dec{}},
		{isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompAddu, Rd: 5, Rs1: 1}, dec{dst: 5}},
		{isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmJspci, Rd: 31}, dec{dst: 31}},
		{isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMots, Rs1: 2}, dec{}},
	} {
		w := tc.in.Encode()
		tc.want.in = isa.Decode(w)
		if got := decode(w); got != tc.want {
			t.Errorf("decode(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
