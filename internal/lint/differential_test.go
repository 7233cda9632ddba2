package lint_test

// Differential validation of the error-severity rules: for every rule, a
// minimal program the linter flags must actually behave differently on the
// pipelined machine than under its sequential reading — either the golden
// model computes a different result, or it refuses the program outright
// (constructs with no sequential meaning). This is what justifies failing
// builds on these rules: each one is silent data corruption, not style.

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/refmodel"
)

func build(t *testing.T, src string) *asm.Image {
	t.Helper()
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

// runPipe executes the image on the full pipelined system with the dynamic
// hazard checker recording (not altering) violations.
func runPipe(t *testing.T, im *asm.Image, slots int) *core.Machine {
	t.Helper()
	ms := core.DefaultConfig()
	ms.Branch.Slots = slots
	m := core.New(ms, nil)
	m.CPU.Cfg.CheckHazards = true
	m.Load(im)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return m
}

func runRef(im *asm.Image, slots int) (*refmodel.Machine, error) {
	ref := refmodel.New(slots, im.Base, im.Words)
	if e, ok := im.Symbols["main"]; ok {
		ref.PC = e
	}
	return ref, ref.Run(1_000_000)
}

// requireRule asserts the linter flags the program with the given rule.
func requireRule(t *testing.T, im *asm.Image, slots int, rule string) {
	t.Helper()
	rep := lint.CheckImage(im, lint.Config{Slots: slots})
	if countRule(rep, rule) == 0 {
		t.Fatalf("linter did not flag %s:\n%s", rule, rep)
	}
}

// requireDynamicHazard asserts the pipeline's own runtime checker also saw
// the hazard — static finding and dynamic detection must agree.
func requireDynamicHazard(t *testing.T, m *core.Machine) {
	t.Helper()
	if len(m.CPU.Violations) == 0 {
		t.Fatal("pipeline hazard checker saw no violation at runtime")
	}
}

func TestDivergenceLoadUse(t *testing.T) {
	src := `
main:	ld r2, v(r0)
	add r3, r2, r0
	nop
	halt
v:	.word 42
`
	im := build(t, src)
	requireRule(t, im, 2, lint.RuleLoadUse)
	m := runPipe(t, im, 2)
	requireDynamicHazard(t, m)
	ref, err := runRef(im, 2)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	if ref.Regs[3] != 42 {
		t.Fatalf("golden model r3 = %d, want 42", ref.Regs[3])
	}
	if got := m.CPU.Reg(3); got == ref.Regs[3] {
		t.Fatalf("no divergence: both machines computed r3 = %d", got)
	}

	// The corrected program (delay slot filled) converges.
	fixed := build(t, strings.Replace(src, "ld r2, v(r0)\n", "ld r2, v(r0)\n\tnop\n", 1))
	requireCleanAndEqual(t, fixed, 2)
}

func TestDivergenceCoprocTransfer(t *testing.T) {
	// 2816 = the FPU's "read register 0" command; stc/ldc round-trip a value
	// through coprocessor 1, and the consumer sits in the transfer delay.
	src := `
main:	li r1, 42
	stc r1, c1, 2816(r0)
	ldc r2, c1, 2816(r0)
	add r3, r2, r0
	nop
	halt
`
	im := build(t, src)
	requireRule(t, im, 2, lint.RuleCoprocTransfer)
	m := runPipe(t, im, 2)
	requireDynamicHazard(t, m)
	ref, err := runRef(im, 2)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	if ref.Regs[3] != 42 {
		t.Fatalf("golden model r3 = %d, want 42", ref.Regs[3])
	}
	if got := m.CPU.Reg(3); got == ref.Regs[3] {
		t.Fatalf("no divergence: both machines computed r3 = %d", got)
	}
}

func TestDivergenceCtrlInSlot(t *testing.T) {
	// A branch in a branch's delay slot: the pipelined fetch unit honors the
	// later redirect; a sequential reading does not exist, and the golden
	// model refuses the program.
	src := `
main:	b one
	b two
	nop
one:	li r1, 1
	halt
	nop
two:	li r1, 2
	halt
`
	im := build(t, src)
	requireRule(t, im, 2, lint.RuleCtrlInSlot)
	m := runPipe(t, im, 2)
	if got := m.CPU.Reg(1); got != 2 {
		t.Fatalf("pipeline r1 = %d, want 2 (second redirect wins)", got)
	}
	if _, err := runRef(im, 2); err == nil {
		t.Fatal("golden model accepted a control transfer in a delay slot")
	}
}

func TestDivergenceSpecialTiming(t *testing.T) {
	src := `
main:	li r1, 42
	mots md, r1
	movs r2, md
	nop
	halt
`
	im := build(t, src)
	requireRule(t, im, 2, lint.RuleSpecialTiming)
	m := runPipe(t, im, 2)
	requireDynamicHazard(t, m)
	ref, err := runRef(im, 2)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	if ref.Regs[2] != 42 {
		t.Fatalf("golden model r2 = %d, want 42", ref.Regs[2])
	}
	if got := m.CPU.Reg(2); got == ref.Regs[2] {
		t.Fatalf("no divergence: both machines computed r2 = %d", got)
	}

	fixed := build(t, strings.Replace(src, "mots md, r1\n", "mots md, r1\n\tnop\n", 1))
	requireCleanAndEqual(t, fixed, 2)
}

func TestDivergencePCChain(t *testing.T) {
	// The exception-restart context: chain shifting frozen (as a handler
	// runs), then a mots pc0 consumed by a jpc one slot later. The pipelined
	// machine jumps through the STALE chain entry — it re-executes part of
	// the program before the late commit takes effect — while the golden
	// model refuses jpc outright (no sequential meaning).
	src := `
main:	li r2, 1
	mots psw, r2
	nop
	nop
	nop
	la r1, tgt
	nop
	mots pc0, r1
	jpc
	nop
	nop
tgt:	putw r1
	halt
`
	im := build(t, src)
	requireRule(t, im, 2, lint.RulePCChain)
	m := runPipe(t, im, 2)
	if out := m.Output(); out == "" {
		t.Fatal("pipeline produced no output")
	}
	if _, err := runRef(im, 2); err == nil {
		t.Fatal("golden model accepted jpc")
	}
}

func TestDivergenceQuickBranch(t *testing.T) {
	// On the 1-slot quick-compare machine the branch reads its operands in
	// RF: a value produced one slot earlier is not yet visible, so the
	// branch decides on the stale register and goes the wrong way.
	src := `
main:	li r1, 1
	beq r1, r0, wrong
	nop
	li r2, 1
	halt
wrong:	li r2, 2
	halt
`
	im := build(t, src)
	requireRule(t, im, 1, lint.RuleQuickBranch)
	m := runPipe(t, im, 1)
	requireDynamicHazard(t, m)
	ref, err := runRef(im, 1)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	if ref.Regs[2] != 1 {
		t.Fatalf("golden model r2 = %d, want 1 (branch not taken)", ref.Regs[2])
	}
	if got := m.CPU.Reg(2); got == ref.Regs[2] {
		t.Fatalf("no divergence: both machines computed r2 = %d", got)
	}

	// With the operand produced two slots ahead the machines converge.
	fixed := build(t, strings.Replace(src, "li r1, 1\n", "li r1, 1\n\tnop\n", 1))
	requireCleanAndEqual(t, fixed, 1)
}

// requireCleanAndEqual asserts the image lints clean (no errors) and that
// pipeline and golden model agree on registers and output.
func requireCleanAndEqual(t *testing.T, im *asm.Image, slots int) {
	t.Helper()
	rep := lint.CheckImage(im, lint.Config{Slots: slots})
	if rep.HasErrors() {
		t.Fatalf("corrected program still flagged:\n%s", rep)
	}
	m := runPipe(t, im, slots)
	if len(m.CPU.Violations) != 0 {
		t.Fatalf("corrected program still trips the dynamic checker: %v", m.CPU.Violations)
	}
	ref, err := runRef(im, slots)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if m.CPU.Reg(r) != ref.Regs[r] {
			t.Fatalf("r%d = %#x, golden model says %#x", r, m.CPU.Reg(r), ref.Regs[r])
		}
	}
	if m.Output() != ref.Out.String() {
		t.Fatalf("output %q, golden model says %q", m.Output(), ref.Out.String())
	}
}
