package scenario

// Windowed-ledger seams at the scenario layer: per-window conservation must
// hold when the boundary lands exactly on a context switch, the windowed
// series must sum back to the unwindowed ledger, and attaching windows (or a
// streaming emitter) must not move a single cycle.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
)

// runWindowed executes the standard workload with an N-cycle windowed
// ledger; Run's internal verify() already checks the per-window and
// windows-vs-ledger conservation equations before returning.
func runWindowed(t *testing.T, policy string, quantum, window int, opts RunOpts) *Result {
	t.Helper()
	ms := spec.Default()
	scn := spec.DefaultScenario()
	scn.Policy = policy
	scn.Quantum = quantum
	scn.Window = window
	ms.Scenario = &scn
	r, err := RunWith(context.Background(), testPrograms(t), reorg.Default(), ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
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
			win := runWindowed(t, policy, quantum, quantum, RunOpts{})
			if win.Windows == nil {
				t.Fatal("windowed run retained no window doc")
			}
			if err := win.Windows.Check(); err != nil {
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
			if got := win.Windows.Total(); got != win.Cycles {
				t.Fatalf("windows total %d, run total %d", got, win.Cycles)
			}
			if !reflect.DeepEqual(win.Windows.CauseTotals(), win.Obs.Map()) {
				t.Fatalf("window cause totals diverge from ledger:\nwindows %v\nledger  %v",
					win.Windows.CauseTotals(), win.Obs.Map())
			}

			// Windows are context-keyed: both programs appear, and under the
			// flush policy the scheduler's switch-time work is its own slice.
			seen := map[string]uint64{}
			for _, w := range win.Windows.Windows {
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

// TestWindowEmitStreamsWithoutRetention: with a streaming emitter attached
// the Result carries no window doc, yet the emitted series is the same one a
// retained run would have produced.
func TestWindowEmitStreamsWithoutRetention(t *testing.T) {
	const quantum, window = 2000, 512
	retained := runWindowed(t, spec.PolicyFlush, quantum, window, RunOpts{})
	var emitted []obs.Window
	streamed := runWindowed(t, spec.PolicyFlush, quantum, window, RunOpts{
		WindowEmit: func(w *obs.Window) error { emitted = append(emitted, *w); return nil },
	})
	if streamed.Windows != nil {
		t.Fatal("streaming run retained a window doc")
	}
	if retained.Windows == nil {
		t.Fatal("retained run carries no window doc")
	}
	if !reflect.DeepEqual(emitted, retained.Windows.Windows) {
		t.Fatalf("emitted series (%d windows) differs from retained (%d windows)",
			len(emitted), len(retained.Windows.Windows))
	}
	if streamed.Cycles != retained.Cycles {
		t.Fatalf("streaming emitter changed the run: %d vs %d cycles", streamed.Cycles, retained.Cycles)
	}
}
