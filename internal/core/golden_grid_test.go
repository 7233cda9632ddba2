package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/refmodel"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// TestFastTierBenchmarkEquivalence runs every tinyc benchmark under every
// Table 1 branch scheme on the pipeline and diffs it against the sequential
// golden model built with the scheme's slot count: console output, the
// benchmark's expected output, and r1–r31 at halt. The grid is named for
// the compiled fast tier it once diffed against the pipeline; that tier is
// gone (DESIGN.md §12), and the golden model is now the other side.
func TestFastTierBenchmarkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid in -short mode")
	}
	const limit = 200_000_000
	for _, b := range tinyc.Benchmarks() {
		for _, s := range reorg.Table1Schemes() {
			im, err := tinyc.Build(b.Source, s, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s, err)
			}
			t.Run(b.Name+"/"+s.String(), func(t *testing.T) {
				m := New(DefaultConfig().WithScheme(s), nil)
				m.Load(im)
				if _, err := m.Run(limit); err != nil {
					t.Fatal(err)
				}
				ref := refmodel.New(s.Slots, im.Base, im.Words)
				ref.PC = im.Symbols["main"]
				if err := ref.Run(limit); err != nil {
					t.Fatal(err)
				}
				if m.Output() != b.Expect() {
					t.Errorf("wrong output %q, want %q", m.Output(), b.Expect())
				}
				if got, want := m.Output(), ref.Out.String(); got != want {
					t.Errorf("pipeline printed %q, golden model %q", got, want)
				}
				for r := isa.Reg(1); r < isa.NumRegs; r++ {
					if got, want := m.CPU.Reg(r), ref.Regs[r]; got != want {
						t.Errorf("r%d = %#x, golden model says %#x", r, got, want)
					}
				}
			})
		}
	}
}
