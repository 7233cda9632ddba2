package experiments

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// TestCycleLoopAllocatesNothing: a warm machine with the ledger sink and PC
// profile attached, as experiment cells attach them, allocates nothing per
// cycle, under a 2-slot and a 1-slot scheme; nor does a warm machine under
// the instruction tracer, streaming to io.Discard, once its span labels
// are encoded.
func TestCycleLoopAllocatesNothing(t *testing.T) {
	b := tinyc.Benchmarks()[0] // bubblesort: 53,633 cycles, longer than the quanta below
	oneSlot := reorg.Scheme{Slots: 1, Squash: reorg.SquashOptional}
	for _, c := range []struct {
		name   string
		scheme reorg.Scheme
		traced bool
	}{
		{reorg.Default().String(), reorg.Default(), false},
		{oneSlot.String(), oneSlot, false},
		{"traced", reorg.Default(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			im, err := buildCached(b, c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			m := core.New(spec.Table1(c.scheme), nil)
			m.Load(im)
			s := obs.NewMachineSink()
			if c.traced {
				s.Tracer = &obs.Tracer{Instrs: true}
				if err := s.Tracer.StartStream(io.Discard, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				m.CPU.Prof = obs.NewPCProfile(uint32(im.Base), len(im.Words))
			}
			m.Observe(s)
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
