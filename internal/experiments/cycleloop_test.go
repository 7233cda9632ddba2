package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// TestCycleLoopAllocatesNothing: a warm machine with the ledger sink and PC
// profile attached, as experiment cells attach them, allocates nothing per
// cycle, under a 2-slot and a 1-slot scheme.
func TestCycleLoopAllocatesNothing(t *testing.T) {
	b := tinyc.Benchmarks()[0] // bubblesort: 53,633 cycles, longer than the quanta below
	for _, scheme := range []reorg.Scheme{reorg.Default(), {Slots: 1, Squash: reorg.SquashOptional}} {
		t.Run(scheme.String(), func(t *testing.T) {
			im, err := buildCached(b, scheme)
			if err != nil {
				t.Fatal(err)
			}
			m := core.New(buildConfig(spec.Default().WithScheme(scheme)), nil)
			m.Load(im)
			m.CPU.Prof = obs.NewPCProfile(uint32(im.Base), len(im.Words))
			m.Observe(obs.NewMachineSink())
			if _, _, err := m.RunQuantum(5000); err != nil {
				t.Fatal(err)
			}
			var runErr error
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := m.RunQuantum(1000); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if m.Console.Halted {
				t.Fatal("halted inside the measured quanta; pick a longer benchmark")
			}
			if allocs != 0 {
				t.Errorf("RunQuantum(1000) allocates %v times per call, want 0", allocs)
			}
		})
	}
}
