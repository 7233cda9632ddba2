package lint_test

// Table-driven rule tests: one minimal positive and one minimal negative
// assembly fixture per rule, plus cross-block cases that only a CFG-aware
// checker can classify correctly.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lint"
)

func mustCheck(t *testing.T, src string, cfg lint.Config) *lint.Report {
	t.Helper()
	rep, err := lint.CheckSource(src, cfg)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	return rep
}

func countRule(rep *lint.Report, rule string) int {
	n := 0
	for _, d := range rep.Diags {
		if d.Rule == rule {
			n++
		}
	}
	return n
}

func TestRuleFixtures(t *testing.T) {
	cfg2 := lint.Config{Slots: 2}
	cfg1 := lint.Config{Slots: 1}
	tests := []struct {
		name string
		cfg  lint.Config
		src  string
		rule string // rule under test
		hits int    // expected findings of that rule
	}{
		{
			name: "load-use positive",
			cfg:  cfg2,
			rule: lint.RuleLoadUse,
			hits: 1,
			src: `
main:	ld r1, v(r0)
	add r2, r1, r0
	halt
v:	.word 42
`,
		},
		{
			name: "load-use negative",
			cfg:  cfg2,
			rule: lint.RuleLoadUse,
			hits: 0,
			src: `
main:	ld r1, v(r0)
	nop
	add r2, r1, r0
	halt
v:	.word 42
`,
		},
		{
			name: "load-use across taken edge positive",
			cfg:  cfg2,
			rule: lint.RuleLoadUse,
			hits: 1,
			src: `
main:	b next
	nop
	ld r1, v(r0)
next:	add r2, r1, r0
	halt
v:	.word 7
`,
		},
		{
			name: "load-use across taken edge negative",
			cfg:  cfg2,
			rule: lint.RuleLoadUse,
			hits: 0,
			src: `
main:	b next
	nop
	ld r1, v(r0)
next:	nop
	add r2, r1, r0
	halt
v:	.word 7
`,
		},
		{
			name: "load-use across fall-through edge positive",
			cfg:  cfg2,
			rule: lint.RuleLoadUse,
			hits: 1,
			src: `
main:	beq r1, r2, far
	nop
	ld r3, v(r0)
	add r4, r3, r0
	halt
far:	halt
v:	.word 7
`,
		},
		{
			name: "coproc-transfer positive",
			cfg:  cfg2,
			rule: lint.RuleCoprocTransfer,
			hits: 1,
			src: `
main:	ldc r1, c1, 2816(r0)
	add r2, r1, r0
	halt
`,
		},
		{
			name: "coproc-transfer negative",
			cfg:  cfg2,
			rule: lint.RuleCoprocTransfer,
			hits: 0,
			src: `
main:	ldc r1, c1, 2816(r0)
	nop
	add r2, r1, r0
	halt
`,
		},
		{
			name: "ctrl-in-slot positive",
			cfg:  cfg2,
			rule: lint.RuleCtrlInSlot,
			hits: 1,
			src: `
main:	b done
	b done
	nop
done:	halt
`,
		},
		{
			name: "ctrl-in-slot negative: jpc restart chain is sanctioned",
			cfg:  cfg2,
			rule: lint.RuleCtrlInSlot,
			hits: 0,
			src: `
main:	jpc
	jpc
	jpcrs
	nop
	nop
`,
		},
		{
			name: "special-timing positive",
			cfg:  cfg2,
			rule: lint.RuleSpecialTiming,
			hits: 1,
			src: `
main:	li r1, 42
	mots md, r1
	movs r2, md
	halt
`,
		},
		{
			name: "special-timing negative",
			cfg:  cfg2,
			rule: lint.RuleSpecialTiming,
			hits: 0,
			src: `
main:	li r1, 42
	mots md, r1
	nop
	movs r2, md
	halt
`,
		},
		{
			// The jump's one delay slot is also its target, so the slot is
			// issued a second time outside the window and runs on into movs.
			name: "special-timing positive (delay slot entered as jump target)",
			cfg:  cfg1,
			rule: lint.RuleSpecialTiming,
			hits: 1,
			src: `
main:	jspci r0, s(r0)
s:	mots md, r2
	movs r3, md
	halt
`,
		},
		{
			name: "pc-chain positive",
			cfg:  cfg2,
			rule: lint.RulePCChain,
			hits: 1,
			src: `
main:	li r1, 8
	mots pc0, r1
	jpc
	nop
	nop
	halt
`,
		},
		{
			name: "pc-chain negative",
			cfg:  cfg2,
			rule: lint.RulePCChain,
			hits: 0,
			src: `
main:	li r1, 8
	mots pc0, r1
	nop
	jpc
	nop
	nop
	halt
`,
		},
		{
			name: "quick-branch positive (1-slot machine)",
			cfg:  cfg1,
			rule: lint.RuleQuickBranch,
			hits: 1,
			src: `
main:	li r1, 1
	beq r1, r0, out
	nop
out:	halt
`,
		},
		{
			name: "quick-branch negative (1-slot machine, distance 2)",
			cfg:  cfg1,
			rule: lint.RuleQuickBranch,
			hits: 0,
			src: `
main:	li r1, 1
	nop
	beq r1, r0, out
	nop
out:	halt
`,
		},
		{
			name: "quick-branch negative (2-slot machine resolves in ALU)",
			cfg:  cfg2,
			rule: lint.RuleQuickBranch,
			hits: 0,
			src: `
main:	li r1, 1
	beq r1, r0, out
	nop
	nop
out:	halt
`,
		},
		{
			name: "psw-window positive",
			cfg:  cfg2,
			rule: lint.RulePSWWindow,
			hits: 1,
			src: `
main:	li r1, 3
	mots psw, r1
	add r2, r0, r0
	halt
`,
		},
		{
			name: "psw-window negative (untrapping add)",
			cfg:  cfg2,
			rule: lint.RulePSWWindow,
			hits: 0,
			src: `
main:	li r1, 3
	mots psw, r1
	addu r2, r0, r0
	halt
`,
		},
		{
			name: "squash-slot-write positive",
			cfg:  cfg2,
			rule: lint.RuleSquashSlotWrite,
			hits: 1,
			src: `
main:	li r3, 1
	li r1, 0
	beq.sq r1, r2, out
	li r3, 5
	nop
	add r4, r3, r0
	halt
out:	halt
`,
		},
		{
			name: "squash-slot-write negative (dead on fall-through)",
			cfg:  cfg2,
			rule: lint.RuleSquashSlotWrite,
			hits: 0,
			src: `
main:	li r3, 1
	li r1, 0
	beq.sq r1, r2, out
	li r5, 5
	nop
	add r4, r3, r0
	halt
out:	halt
`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustCheck(t, tc.src, tc.cfg)
			if got := countRule(rep, tc.rule); got != tc.hits {
				t.Fatalf("%s findings = %d, want %d\nreport:\n%s", tc.rule, got, tc.hits, rep)
			}
			// Negatives must be clean of the rule under test AND of every
			// other error — a fixture that trips a different error rule is
			// testing the wrong thing.
			if tc.hits == 0 && rep.HasErrors() {
				t.Fatalf("negative fixture has unrelated errors:\n%s", rep)
			}
			for _, d := range rep.Diags {
				if d.Rule == tc.rule && d.Severity != lint.RuleSeverity(tc.rule) {
					t.Fatalf("finding severity %v, want %v", d.Severity, lint.RuleSeverity(tc.rule))
				}
			}
		})
	}
}

func TestDiagnosticLabeling(t *testing.T) {
	rep := mustCheck(t, `
main:	nop
loop:	ld r1, v(r0)
	add r2, r1, r0
	halt
v:	.word 1
`, lint.DefaultConfig())
	if len(rep.Errors()) != 1 {
		t.Fatalf("want 1 error, got:\n%s", rep)
	}
	d := rep.Errors()[0]
	if d.Label != "loop+1" {
		t.Errorf("label = %q, want \"loop+1\"", d.Label)
	}
	if d.PC != 2 {
		t.Errorf("pc = %d, want 2", d.PC)
	}
	if d.Line == 0 {
		t.Errorf("diagnostic lost its source line")
	}
	if !strings.Contains(d.String(), "load-use") {
		t.Errorf("String() = %q, want the rule name in it", d.String())
	}
}

func TestReportJSON(t *testing.T) {
	rep := mustCheck(t, `
main:	ld r1, v(r0)
	add r2, r1, r0
	halt
v:	.word 1
`, lint.DefaultConfig())
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Golden output: the envelope is a parser contract (schema tag first,
	// findings under "diagnostics"), so pin it byte-for-byte.
	want := `{
  "schema": "mipsx-lint/v1",
  "diagnostics": [
    {
      "rule": "load-use",
      "severity": "error",
      "pc": 1,
      "line": 3,
      "label": "main+1",
      "detail": "reads r1 loaded 1 slot(s) earlier (load delay slot unfilled; needs 2)"
    }
  ]
}
`
	if string(b) != want {
		t.Fatalf("JSON envelope drifted from golden output:\ngot:\n%s\nwant:\n%s", b, want)
	}
	var decoded struct {
		Schema      string           `json:"schema"`
		Diagnostics []map[string]any `json:"diagnostics"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, b)
	}
	if decoded.Schema != lint.ReportSchema {
		t.Fatalf("schema %q, want %q", decoded.Schema, lint.ReportSchema)
	}
	if len(decoded.Diagnostics) != 1 {
		t.Fatalf("want 1 finding, got %d", len(decoded.Diagnostics))
	}
	if decoded.Diagnostics[0]["rule"] != "load-use" || decoded.Diagnostics[0]["severity"] != "error" {
		t.Fatalf("unexpected JSON finding: %v", decoded.Diagnostics[0])
	}
	// An empty report still carries the envelope with an empty (non-null)
	// diagnostics array.
	empty, err := (&lint.Report{}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "{\n  \"schema\": \"mipsx-lint/v1\",\n  \"diagnostics\": []\n}\n" {
		t.Fatalf("empty-report envelope drifted:\n%s", empty)
	}
}

func TestSeverityOrdering(t *testing.T) {
	// A program with an error and an info: the report sorts errors first.
	rep := mustCheck(t, `
main:	li r3, 1
	li r1, 0
	beq.sq r1, r2, out
	li r3, 5
	nop
	add r4, r3, r0
	ld r5, v(r0)
	add r6, r5, r0
	halt
out:	halt
v:	.word 9
`, lint.DefaultConfig())
	if len(rep.Diags) < 2 {
		t.Fatalf("want ≥ 2 findings, got:\n%s", rep)
	}
	for i := 1; i < len(rep.Diags); i++ {
		if rep.Diags[i].Severity > rep.Diags[i-1].Severity {
			t.Fatalf("findings not sorted most-severe first:\n%s", rep)
		}
	}
	errs, _, infos := rep.Counts()
	if errs != 1 || infos != 1 {
		t.Fatalf("counts = %d errors, %d infos; want 1 and 1\n%s", errs, infos, rep)
	}
}

func TestCheckSourceParseError(t *testing.T) {
	if _, err := lint.CheckSource("main:\tbogus r1\n", lint.DefaultConfig()); err == nil {
		t.Fatal("want parse error, got nil")
	}
}
