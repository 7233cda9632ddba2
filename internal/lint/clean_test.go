package lint_test

// Acceptance sweep: every benchmark of the suite, reorganized for every
// Table 1 scheme, must produce zero error-severity findings, assembled at
// address 0 and at a nonzero base (which exercises base-relative jspci
// target resolution in the CFG). internal/reorg's
// TestEveryTransferGetsExactSlots checks the same output's delay-slot
// counts.

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/lint"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

func TestBenchmarkSuiteLintsClean(t *testing.T) {
	for _, b := range tinyc.Benchmarks() {
		c, err := tinyc.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, scheme := range reorg.Table1Schemes() {
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				out := reorg.Reorganize(c.Stmts, scheme, nil)
				for _, base := range []uint32{0, 0x1000} {
					im, err := asm.Assemble(out, base)
					if err != nil {
						t.Fatal(err)
					}
					if rep := lint.CheckImage(im, lint.Config{Slots: scheme.Slots}); rep.HasErrors() {
						t.Fatalf("errors at base %#x:\n%s", base, rep)
					}
				}
			})
		}
	}
}
