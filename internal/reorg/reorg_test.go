package reorg

import (
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/coproc"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/pipeline"
)

// flat mirrors the stall-free memory used by the pipeline tests.
type flat struct{ words []isa.Word }

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

// reorganizeAndLint parses naive source and reorganizes it for the scheme.
// The output must give every transfer exactly its delay slots and lint with
// no error; reorganizeAndLint returns its assembled image.
func reorganizeAndLint(t *testing.T, src string, scheme Scheme, prof Profile) *asm.Image {
	t.Helper()
	stmts, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := Reorganize(stmts, scheme, prof)
	requireExactSlots(t, out, scheme.Slots)
	im, err := asm.Assemble(out, 0)
	if err != nil {
		t.Fatalf("assemble reorganized: %v", err)
	}
	if rep := lint.CheckImage(im, lint.Config{Slots: scheme.Slots}); rep.HasErrors() {
		t.Fatalf("%s output failed hazard lint:\n%s", scheme, rep)
	}
	return im
}

// runReorganized runs reorganizeAndLint's image on a machine with matching
// slot count and hazard checking, and returns (cpu, output).
func runReorganized(t *testing.T, src string, scheme Scheme, prof Profile) (*pipeline.CPU, string) {
	t.Helper()
	im := reorganizeAndLint(t, src, scheme, prof)
	mem := &flat{words: append([]isa.Word(nil), im.Words...)}
	var sb strings.Builder
	con := &coproc.Console{Out: &sb}
	var set coproc.Set
	set.Attach(1, coproc.NewFPU())
	set.Attach(7, con)
	cfg := pipeline.Config{BranchSlots: scheme.Slots, CheckHazards: true}
	cpu := pipeline.New(cfg, mem, mem, &set)
	entry := isa.Word(0)
	if e, ok := im.Symbols["main"]; ok {
		entry = e
	}
	cpu.Reset(entry)
	for cycles := 0; !con.Halted; {
		cycles += cpu.Step()
		if cycles > 200000 {
			t.Fatalf("no halt (pc %#x)", cpu.PC())
		}
	}
	for _, v := range cpu.Violations {
		t.Errorf("reorganizer emitted hazardous code: %v", v)
	}
	return cpu, sb.String()
}

// The naive sum program: no delay slots, loads used immediately — illegal
// as written, legal after reorganization.
const naiveSum = `
main:	la r1, data
	ld r2, 0(r1)
	add r3, r2, r2
	addi r4, r0, 0
	addi r5, r0, 0
loop:	addi r5, r5, 1
	add r4, r4, r5
	bne r5, r2, loop
	putw r4
	halt
data:	.word 10
`

func TestReorganizedNaiveCodeRunsCorrectly(t *testing.T) {
	for _, scheme := range Table1Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			_, out := runReorganized(t, naiveSum, scheme, nil)
			if out != "55\n" {
				t.Fatalf("output %q, want 55", out)
			}
		})
	}
}

func TestLoadDelayGetsScheduledOrPadded(t *testing.T) {
	src := `
main:	la r1, data
	ld r2, 0(r1)
	add r3, r2, r2
	putw r3
	halt
data:	.word 21
`
	_, out := runReorganized(t, src, Default(), nil)
	if out != "42\n" {
		t.Fatalf("output %q", out)
	}
}

func TestSchedulerFillsLoadDelayWithIndependentWork(t *testing.T) {
	// The independent addi can be scheduled into the load delay slot, so no
	// no-op should be needed.
	src := `
main:	la r1, data
	ld r2, 0(r1)
	addi r9, r0, 7
	add r3, r2, r2
	halt
data:	.word 5
`
	stmts, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Reorganize(stmts, Default(), nil)
	nops := 0
	for _, s := range out {
		if s.IsInstr && s.In.IsNop() {
			nops++
		}
	}
	if nops != 0 {
		t.Errorf("scheduler inserted %d no-ops; the independent addi should fill the slot", nops)
	}
	cpu, _ := runReorganized(t, src, Default(), nil)
	if cpu.Reg(3) != 10 || cpu.Reg(9) != 7 {
		t.Fatalf("r3=%d r9=%d", cpu.Reg(3), cpu.Reg(9))
	}
}

// requireExactSlots fails t unless every control transfer in the flattened
// output is followed by slots instruction statements, none a transfer: the
// filler left no slot unfilled when stealing failed.
func requireExactSlots(t *testing.T, out []asm.Stmt, slots int) {
	t.Helper()
	for i, s := range out {
		if !isCtrl(s) {
			continue
		}
		for k := 1; k <= slots; k++ {
			if i+k >= len(out) || !out[i+k].IsInstr || isCtrl(out[i+k]) {
				t.Fatalf("transfer at stmt %d (line %d) lacks delay slot %d of %d", i, s.Line, k, slots)
			}
		}
	}
}

// seamSrc is the shape that defeats a purely block-local hazard check: the
// candidate the from-above filler wants to move into the jump's delay slot
// (addi r2) produces the operand of a quick-compare branch sitting at the
// jump target. On the 1-slot machine that branch reads its sources in RF —
// the value must be two issue slots back, and the slot is only one.
const seamSrc = `
main:	addi r1, r0, 5
	addi r2, r0, 9
	b tgt
tgt:	bne r2, r1, out
	putw r1
	halt
out:	putw r2
	halt
`

func TestSeamHazardNotStolenOnQuickMachine(t *testing.T) {
	// Regression for the from-above filler's seam blindness: it must refuse
	// to park a quick-branch operand producer in the delay slot directly
	// before the branch. Lint (in runReorganized) proves the schedule, the
	// output proves the branch still decides on the fresh value (r2 = 9 ≠
	// r1 = 5 → taken → prints 9), and the hazard checker proves no stale
	// read happened on the way. The 2-slot schemes run the same program.
	for _, scheme := range Table1Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			_, out := runReorganized(t, seamSrc, scheme, nil)
			if out != "9\n" {
				t.Fatalf("output %q, want 9 (branch read a stale operand)", out)
			}
		})
	}
}

// nestedLoops nests two counted loops, forward and backward branches:
// r4 = 4 inner iterations, r5 = 3 outer → total = 3 * (0+1+2+3) = 18.
const nestedLoops = `
main:	addi r4, r0, 4
	addi r5, r0, 3
	addi r1, r0, 0      ; total
	addi r2, r0, 0      ; i
outer:	addi r3, r0, 0      ; j
inner:	add  r1, r1, r3
	addi r3, r3, 1
	blt  r3, r4, inner
	addi r2, r2, 1
	blt  r2, r5, outer
	putw r1
	halt
`

// TestReorganizeCheckedStress: the reorganized naive sum, seam and nested
// loops give every transfer its exact delay slots and lint clean under
// every Table 1 scheme.
func TestReorganizeCheckedStress(t *testing.T) {
	srcs := map[string]string{"naiveSum": naiveSum, "seam": seamSrc, "nestedLoops": nestedLoops}
	for name, src := range srcs {
		for _, scheme := range Table1Schemes() {
			t.Run(name+"/"+scheme.String(), func(t *testing.T) {
				reorganizeAndLint(t, src, scheme, nil)
			})
		}
	}
}

// TestReorganizeCheckedReportsPlantedHazard: a scheduler that drops the
// no-op between a load and its consumer must not get past lint. Strip every
// no-op from a legal schedule and lint must report the load-use hazard.
func TestReorganizeCheckedReportsPlantedHazard(t *testing.T) {
	src := `
main:	la r1, data
	ld r2, 0(r1)
	putw r2
	halt
data:	.word 7
`
	if _, out := runReorganized(t, src, Default(), nil); out != "7\n" {
		t.Fatalf("output %q, want 7", out)
	}
	stmts, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var broken []asm.Stmt
	for _, s := range Reorganize(stmts, Default(), nil) {
		if !s.IsInstr || !s.In.IsNop() || len(s.Labels) > 0 {
			broken = append(broken, s)
		}
	}
	im, err := asm.Assemble(broken, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := lint.CheckImage(im, lint.Config{Slots: 2})
	for _, d := range rep.Errors() {
		if d.Rule == lint.RuleLoadUse {
			return
		}
	}
	t.Fatalf("hazard survived the lint check:\n%s", rep)
}

func TestSquashFillCopiesFromTargetAndRetargets(t *testing.T) {
	// A loop: the backward branch is predicted taken under SquashOptional
	// and must be squash-filled with copies of the loop head, retargeted
	// past them.
	src := `
main:	addi r1, r0, 0
	addi r2, r0, 5
loop:	addi r1, r1, 1
	addi r9, r9, 2
	bne r1, r2, loop
	putw r1
	putw r9
	halt
`
	stmts, _ := asm.Parse(src)
	out := Reorganize(stmts, Scheme{2, SquashOptional}, nil)
	// Find the branch: it must be squash-type and its slots must not be nops.
	found := false
	for i, s := range out {
		if s.IsInstr && s.In.IsBranch() && !isUnconditional(s.In) {
			found = true
			if !s.In.Squash {
				t.Fatal("backward branch not squash-type under SquashOptional")
			}
			if out[i+1].In.IsNop() || out[i+2].In.IsNop() {
				t.Fatal("squash slots not filled from target")
			}
			if s.Target == "loop" {
				t.Fatal("branch not retargeted past the stolen instructions")
			}
		}
	}
	if !found {
		t.Fatal("branch not found")
	}
	_, output := runReorganized(t, src, Scheme{2, SquashOptional}, nil)
	if output != "5\n10\n" {
		t.Fatalf("output %q, want 5,10", output)
	}
}

func TestNoSquashFillsFromAbove(t *testing.T) {
	src := `
main:	addi r1, r0, 1
	addi r8, r0, 8
	addi r9, r0, 9
	beq r1, r1, target
	addi r7, r0, 7
target:	putw r8
	putw r9
	halt
`
	stmts, _ := asm.Parse(src)
	out := Reorganize(stmts, Scheme{2, NoSquash}, nil)
	// The two independent addis (r8, r9) should move into the slots.
	var branchAt int
	for i, s := range out {
		if s.IsInstr && s.In.IsBranch() {
			branchAt = i
			break
		}
	}
	if out[branchAt+1].In.IsNop() && out[branchAt+2].In.IsNop() {
		t.Fatal("no-squash slots left entirely as no-ops despite movable code above")
	}
	cpu, output := runReorganized(t, src, Scheme{2, NoSquash}, nil)
	if output != "8\n9\n" {
		t.Fatalf("output %q", output)
	}
	if cpu.Reg(7) != 0 {
		t.Fatal("skipped instruction executed")
	}
}

func TestFromAboveNeverStealsBranchSource(t *testing.T) {
	src := `
main:	addi r1, r0, 1
	addi r2, r0, 1
	beq r1, r2, eq
	putw r0
	halt
eq:	addi r9, r0, 1
	putw r9
	halt
`
	_, out := runReorganized(t, src, Scheme{2, NoSquash}, nil)
	if out != "1\n" {
		t.Fatalf("output %q: branch source was corrupted by slot filling", out)
	}
}

func TestProfileOverridesHeuristic(t *testing.T) {
	// A forward branch that is almost always taken: the heuristic predicts
	// not-taken, a profile predicts taken (squash fill).
	src := `
main:	addi r1, r0, 1
	bne r1, r0, fwd
	addi r9, r0, 9
fwd:	putw r1
	halt
`
	stmts, _ := asm.Parse(src)
	noProf := Reorganize(stmts, Scheme{2, SquashOptional}, nil)
	var sqNo bool
	for _, s := range noProf {
		if s.IsInstr && s.In.IsBranch() && !isUnconditional(s.In) {
			sqNo = s.In.Squash
		}
	}
	if sqNo {
		t.Fatal("heuristic should predict forward branch not-taken")
	}
	stmts2, _ := asm.Parse(src)
	withProf := Reorganize(stmts2, Scheme{2, SquashOptional}, Profile{0: 0.95})
	var sqYes bool
	for _, s := range withProf {
		if s.IsInstr && s.In.IsBranch() && !isUnconditional(s.In) {
			sqYes = s.In.Squash
		}
	}
	if !sqYes {
		t.Fatal("profile should flip the forward branch to squash-fill")
	}
	_, out := runReorganized(t, src, Scheme{2, SquashOptional}, Profile{0: 0.95})
	if out != "1\n" {
		t.Fatalf("output %q", out)
	}
}

func TestCallSlotsStealFromCallee(t *testing.T) {
	src := `
main:	call fn
	putw r2
	halt
fn:	addi r2, r0, 30
	addi r2, r2, 12
	ret
`
	cpu, out := runReorganized(t, src, Default(), nil)
	if out != "42\n" {
		t.Fatalf("output %q", out)
	}
	_ = cpu
}

func TestMultiplySequenceSurvivesReorganization(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\taddi r1, r0, 1234\n\taddi r2, r0, 4321\n\tmots md, r1\n\tadd r3, r0, r0\n")
	for i := 0; i < 32; i++ {
		sb.WriteString("\tmstep r3, r3, r2\n")
	}
	sb.WriteString("\tmovs r4, md\n\tputw r4\n\thalt\n")
	_, out := runReorganized(t, sb.String(), Default(), nil)
	if out != "5332114\n" {
		t.Fatalf("output %q, want %d", out, 1234*4321)
	}
}

func TestFallthroughBoundaryLoadHazardFixed(t *testing.T) {
	// Block A ends with a load (can't be scheduled away: nothing after it);
	// block B (labeled, so a separate chunk) uses it immediately.
	src := `
main:	la r1, data
	ld r2, 0(r1)
join:	add r3, r2, r2
	putw r3
	halt
data:	.word 50
`
	_, out := runReorganized(t, src, Default(), nil)
	if out != "100\n" {
		t.Fatalf("output %q", out)
	}
}

// TestFixFallthroughStopsOnBodyHazard: no-ops at a block's end cannot fix
// a hazard inside its body (the list scheduler would never leave one, so
// this drives fixFallthrough directly). It stops after the largest distance
// any rule demands, and lint reports the hazard by pc. The run gets a
// deadline so that an unbounded loop fails the test instead of hanging it.
func TestFixFallthroughStopsOnBodyHazard(t *testing.T) {
	stmts, err := asm.Parse("ld r1, 0(r0)\nadd r2, r1, r1\nnext: putw r2\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	r := &reorganizer{scheme: Default(), chunks: split(stmts)}
	done := make(chan []asm.Stmt, 1)
	go func() {
		r.fixFallthrough()
		done <- r.flatten()
	}()
	var out []asm.Stmt
	select {
	case out = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fixFallthrough still padding a block with a body hazard after 2 s")
	}
	if len(out) != 4+3 {
		t.Errorf("%d statements out; want the 4 in and 3 no-ops", len(out))
	}
	im, err := asm.Assemble(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := lint.CheckImage(im, lint.DefaultConfig()).Errors()
	if len(errs) != 1 || errs[0].Rule != lint.RuleLoadUse || errs[0].PC != 1 {
		t.Fatalf("lint errors %v; want one load-use error at pc 1", errs)
	}
}

func TestDataChunksPassThroughUntouched(t *testing.T) {
	src := `
main:	la r1, tab
	ld r2, 1(r1)
	putw r2
	halt
tab:	.word 10, 20, 30
buf:	.space 2
`
	stmts, _ := asm.Parse(src)
	out := Reorganize(stmts, Default(), nil)
	im, err := asm.Assemble(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := im.Symbols["tab"]
	if im.Words[tab] != 10 || im.Words[tab+1] != 20 || im.Words[tab+2] != 30 {
		t.Fatal("data corrupted by reorganization")
	}
	_, output := runReorganized(t, src, Default(), nil)
	if output != "20\n" {
		t.Fatalf("output %q", output)
	}
}

func TestStressManyBranchShapes(t *testing.T) {
	// Nested loops with forward and backward branches, through every scheme.
	for _, scheme := range Table1Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			if _, out := runReorganized(t, nestedLoops, scheme, nil); out != "18\n" {
				t.Fatalf("output %q, want 18", out)
			}
		})
	}
}
