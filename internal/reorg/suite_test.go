package reorg_test

// The exact-slot check over the compiled benchmark suite sits in the
// external test package because tinyc imports reorg.

import (
	"testing"

	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// TestEveryTransferGetsExactSlots: every benchmark of the suite,
// reorganized for every Table 1 scheme, gives each transfer exactly its
// delay slots. reorganizeAndLint checks the same of every hand-written
// source the package's tests reorganize.
func TestEveryTransferGetsExactSlots(t *testing.T) {
	for _, b := range tinyc.Benchmarks() {
		c, err := tinyc.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, scheme := range reorg.Table1Schemes() {
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				reorg.RequireExactSlots(t, reorg.Reorganize(c.Stmts, scheme, nil), scheme.Slots)
			})
		}
	}
}
