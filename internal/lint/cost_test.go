package lint_test

// Unit tests for the static cycle-cost model on small hand-written
// programs: block partitioning, halt truncation, squashing-branch slot
// accounting, the hand-computed roll-up, the unmodeled-construct escape
// hatches, and the scheduling-quality warning rules. The whole-suite
// differential gate lives in internal/experiments; these pin the local
// shapes the gate's equality rests on.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/lint"
	"repro/internal/obs"
)

func mustAnalyze(t *testing.T, src string, cfg lint.Config) *lint.CostReport {
	t.Helper()
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return lint.AnalyzeCost(im, cfg)
}

func TestCostBlocksAndHaltTruncation(t *testing.T) {
	// One straight line into a halt: a single block whose cost excludes the
	// halt itself (it is still in flight when the machine stops), whether
	// the halt command goes out by cpw, stc or ldc.
	for _, halt := range []string{"halt", "stc r1, c7, 16383(r0)", "ldc r1, c7, 16383(r0)"} {
		rep := mustAnalyze(t, "main:\tadd r1, r0, r0\n\taddi r2, r1, 3\n\tnop\n\t"+halt+"\n", lint.Config{Slots: 2})
		if !rep.Exact() {
			t.Fatalf("%s: straight-line program flagged unmodeled: %v", halt, rep.Unmodeled)
		}
		if len(rep.Blocks) != 1 {
			t.Fatalf("%s: blocks = %d, want 1\n%s", halt, len(rep.Blocks), rep)
		}
		b := rep.Blocks[0]
		if !b.Halt || b.Len != 3 || b.Exec != 2 || b.Nops != 1 {
			t.Fatalf("%s: halt block = %+v, want len 3 exec 2 nops 1 halt", halt, b)
		}
		if len(b.Succs) != 0 {
			t.Fatalf("%s: halt block has successors: %v", halt, b.Succs)
		}
		if rep.Entry != 0 {
			t.Fatalf("%s: entry = %#x, want 0 (main)", halt, rep.Entry)
		}
	}
}

func TestCostSquashingBranchAndPredict(t *testing.T) {
	rep := mustAnalyze(t, `
main:	addi r1, r0, 2
	addi r9, r0, 1
loop:	subu r1, r1, r9
	bne.sq r1, r0, loop
	nop
	addi r3, r3, 1
done:	addi r4, r0, 5
	halt
`, lint.Config{Slots: 2})
	if !rep.Exact() {
		t.Fatalf("unexpected unmodeled constructs: %v", rep.Unmodeled)
	}
	if len(rep.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3\n%s", len(rep.Blocks), rep)
	}
	loop := rep.Blocks[1]
	if loop.Start != 2 || loop.Len != 4 || loop.Exec != 3 || loop.Nops != 1 {
		t.Fatalf("loop block = %+v, want start 2 len 4 exec 3 nops 1", loop)
	}
	br := loop.Branch
	if br == nil {
		t.Fatal("squashing branch block lost its BranchCost")
	}
	if br.PC != 3 || br.Slots != 2 || br.SlotExec != 1 || br.SlotNops != 1 {
		t.Fatalf("branch cost = %+v, want pc 3 slots 2 exec 1 nops 1", br)
	}

	// Hand-rolled profile: main once, loop twice (branch not-taken then
	// taken), done once. Expected ledger shares:
	//   execute = 1·2 + 2·3 + 1·1 − 1·SlotExec = 8
	//   nop     = 2·1 − 1·SlotNops             = 1
	//   squash  = 1·Slots                      = 2
	prof := obs.NewPCProfile(0, 16)
	prof.NoteWB(0)
	prof.NoteWB(2)
	prof.NoteWB(2)
	prof.NoteWB(6)
	prof.NoteBranch(3, false)
	prof.NoteBranch(3, true)
	p := rep.Predict(prof)
	want := lint.Prediction{Execute: 8, Nops: 1, SquashAnnul: 2}
	if p != want {
		t.Fatalf("prediction = %+v, want %+v", p, want)
	}
	if p.Base() != 11 {
		t.Fatalf("base = %d, want 11", p.Base())
	}
}

func TestCostUnmodeledConstructs(t *testing.T) {
	tests := []struct {
		name, src, flag string
	}{
		{
			name: "halt inside a delay window",
			flag: "sits in a delay window",
			src: `
main:	beq r1, r2, out
	halt
	nop
out:	halt
`,
		},
		{
			name: "squashing window truncated by image end",
			flag: "truncated by data or image end",
			src: `
main:	beq.sq r1, r2, main
	nop
`,
		},
		{
			name: "squashing window split by a join point",
			flag: "split by a join point",
			src: `
main:	b mid
	nop
	nop
top:	beq.sq r1, r2, top
	nop
mid:	add r3, r0, r0
	halt
`,
		},
		{
			name: "console command from a register",
			flag: "takes its command from a register",
			src: `
main:	stc r1, c7, 0(r2)
	halt
`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustAnalyze(t, tc.src, lint.Config{Slots: 2})
			if rep.Exact() {
				t.Fatalf("construct not flagged unmodeled\n%s", rep)
			}
			found := false
			for _, u := range rep.Unmodeled {
				found = found || strings.Contains(u, tc.flag)
			}
			if !found {
				t.Fatalf("unmodeled list %v lacks %q", rep.Unmodeled, tc.flag)
			}
		})
	}
}

func TestCostJSONCarriesSchema(t *testing.T) {
	rep := mustAnalyze(t, "main:\tnop\n\thalt\n", lint.Config{Slots: 2})
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema string `json:"schema"`
		Slots  int    `json:"slots"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("cost JSON does not parse: %v", err)
	}
	if decoded.Schema != lint.CostSchema || decoded.Slots != 2 {
		t.Fatalf("envelope = %+v, want schema %q slots 2", decoded, lint.CostSchema)
	}
}

func TestRuleSquashSlotNop(t *testing.T) {
	rep := mustCheck(t, `
main:	li r1, 0
	beq.sq r1, r2, out
	nop
	nop
	add r3, r0, r0
	halt
out:	halt
`, lint.Config{Slots: 2})
	if got := countRule(rep, lint.RuleSquashSlotNop); got != 2 {
		t.Fatalf("squash-slot-nop findings = %d, want 2 (one per wasted slot)\n%s", got, rep)
	}
	if rep.HasErrors() {
		t.Fatalf("warning fixture has errors:\n%s", rep)
	}
}

func TestRuleSlotUnfilled(t *testing.T) {
	// Positive: a movable add sits right above an unconditional branch with
	// empty slots.
	rep := mustCheck(t, `
main:	add r3, r1, r2
	b out
	nop
	nop
out:	halt
`, lint.Config{Slots: 2})
	if got := countRule(rep, lint.RuleSlotUnfilled); got == 0 {
		t.Fatalf("fillable empty slot not flagged:\n%s", rep)
	}
	// Negative: the branch itself reads the add's result, so the move is
	// illegal and the slot must stay quiet.
	rep = mustCheck(t, `
main:	add r3, r1, r2
	beq r3, r0, out
	nop
	nop
out:	halt
`, lint.Config{Slots: 2})
	if got := countRule(rep, lint.RuleSlotUnfilled); got != 0 {
		t.Fatalf("illegal fill suggested %d time(s):\n%s", got, rep)
	}
}

func TestRuleUnreachableBlock(t *testing.T) {
	rep := mustCheck(t, `
main:	b out
	nop
	nop
dead:	add r1, r1, r1
out:	halt
`, lint.Config{Slots: 2})
	if got := countRule(rep, lint.RuleUnreachable); got != 1 {
		t.Fatalf("unreachable-block findings = %d, want 1\n%s", got, rep)
	}
	d := rep.Diags[0]
	for _, d2 := range rep.Diags {
		if d2.Rule == lint.RuleUnreachable {
			d = d2
		}
	}
	if d.PC != 3 {
		t.Fatalf("unreachable finding at pc %d, want 3 (dead)", d.PC)
	}
	if d.Severity != lint.SevWarn {
		t.Fatalf("unreachable severity = %v, want warning", d.Severity)
	}
}
