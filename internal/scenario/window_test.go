package scenario

// Windowed-ledger seams at the scenario layer: per-window conservation must
// hold when the boundary lands exactly on a context switch, the windowed
// series must sum back to the unwindowed ledger, and attaching windows must
// not move a single cycle.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
)

// runWindowed executes the standard workload with an N-cycle windowed
// ledger attached and returns the run and the windows its emitter received;
// the run's Flush has already checked that they add back to the ledger.
func runWindowed(t *testing.T, policy string, quantum, window int) (*Result, *obs.WindowDoc) {
	t.Helper()
	ms := spec.Default()
	scn := spec.DefaultScenario()
	scn.Policy = policy
	scn.Quantum = quantum
	ms.Scenario = &scn
	w := obs.NewWindowedLedger(obs.MachineCauseNames, uint64(window))
	doc := &obs.WindowDoc{Schema: obs.WindowSchema, Window: uint64(window)}
	w.OnWindow(func(win *obs.Window) error {
		doc.Windows = append(doc.Windows, *win)
		return nil
	})
	r, err := RunWith(context.Background(), testPrograms(t), reorg.Default(), ms, RunOpts{Windows: w})
	if err != nil {
		t.Fatal(err)
	}
	return r, doc
}

// TestWindowBoundaryOnContextSwitch sets the window size equal to the
// quantum, so every window boundary up to the first program's halt falls
// exactly on a context-switch edge — the seam where the ledger's context key
// flips to the scheduler for flush/switch charges. Each window must conserve
// on its own and the series must sum to the unwindowed run cause-for-cause.
func TestWindowBoundaryOnContextSwitch(t *testing.T) {
	const quantum = 2000
	for _, policy := range []string{spec.PolicyFlush, spec.PolicyPID} {
		t.Run(policy, func(t *testing.T) {
			plain := runPolicy(t, policy, quantum)
			win, doc := runWindowed(t, policy, quantum, quantum)
			if len(doc.Windows) == 0 {
				t.Fatal("windowed run emitted no windows")
			}
			if err := doc.Check(); err != nil {
				t.Fatal(err)
			}
			if win.Switches == 0 {
				t.Fatal("no context switches — boundary seam untested")
			}

			// Purity: windowing moved nothing.
			if win.Cycles != plain.Cycles || win.Switches != plain.Switches {
				t.Fatalf("windowing changed the run: %d cycles / %d switches, want %d / %d",
					win.Cycles, win.Switches, plain.Cycles, plain.Switches)
			}
			if !reflect.DeepEqual(win.Obs.Map(), plain.Obs.Map()) {
				t.Fatalf("windowing changed attribution:\nwindowed %v\nplain    %v", win.Obs.Map(), plain.Obs.Map())
			}

			// The series sums back to the unwindowed ledger.
			if got := doc.Total(); got != win.Cycles {
				t.Fatalf("windows total %d, run total %d", got, win.Cycles)
			}
			if !reflect.DeepEqual(doc.CauseTotals(), win.Obs.Map()) {
				t.Fatalf("window cause totals diverge from ledger:\nwindows %v\nledger  %v",
					doc.CauseTotals(), win.Obs.Map())
			}

			// Windows are context-keyed: both programs appear, and under the
			// flush policy the scheduler's switch-time work is its own slice.
			seen := map[string]uint64{}
			for _, w := range doc.Windows {
				for _, cs := range w.Contexts {
					seen[cs.Context] += cs.Cycles
				}
			}
			for _, p := range testPrograms(t) {
				if seen[p.Name] == 0 {
					t.Errorf("no window slice for context %q", p.Name)
				}
			}
			if policy == spec.PolicyFlush {
				if seen[schedulerContext] != win.SwitchCycles+win.FlushStalls {
					t.Errorf("scheduler slices carry %d cycles, want switch %d + flush %d",
						seen[schedulerContext], win.SwitchCycles, win.FlushStalls)
				}
			} else if seen[schedulerContext] != 0 {
				t.Errorf("pid policy charged %d cycles to the scheduler context", seen[schedulerContext])
			}
		})
	}
}

// TestWindowsThatMissChargesFailTheRun: a windowed ledger that does not
// cover the CPU's whole ledger (here one already used for an earlier run)
// no longer adds back, and the run reports it instead of a result.
func TestWindowsThatMissChargesFailTheRun(t *testing.T) {
	ms := spec.Default()
	scn := spec.DefaultScenario()
	ms.Scenario = &scn
	w := obs.NewWindowedLedger(obs.MachineCauseNames, 4096)
	for run := 0; run < 2; run++ {
		_, err := RunWith(context.Background(), testPrograms(t), reorg.Default(), ms, RunOpts{Windows: w})
		if run == 0 && err != nil {
			t.Fatal(err)
		}
		if run == 1 && (err == nil || !strings.Contains(err.Error(), "add back")) {
			t.Fatalf("reused windows: err = %v, want an add-back error", err)
		}
	}
}
