package scenario

// Windowed-ledger seams at the scenario layer: per-window conservation must
// hold when the boundary lands exactly on a context switch, the windowed
// series must sum back to the unwindowed ledger, and attaching windows must
// not move a single cycle.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
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

// e12Windows runs E12's pollution workload, bubblesort+sieve time-sliced
// at quantum 2000 and folded into 2000-cycle windows, under one policy. It
// returns the windows and the sha256 of the mipsx-obswin/v1 stream
// `mipsx-run -scenario bubblesort,sieve -scenario-quantum 2000
// -obs-window 2000` writes for them.
func e12Windows(t *testing.T, policy string) (*obs.WindowDoc, string) {
	t.Helper()
	ms := spec.Default()
	scn := spec.DefaultScenario()
	scn.Policy = policy
	scn.Quantum = 2000
	ms.Scenario = &scn
	w, doc, sum := windowStream(t, 2000)
	if _, err := RunWith(context.Background(), testPrograms(t), reorg.Default(), ms, RunOpts{Windows: w}); err != nil {
		t.Fatal(err)
	}
	return doc, sum()
}

// windowStream builds a windowed ledger of the given size whose windows
// are both kept in a document and streamed into a sha256; the returned
// function yields the stream's digest.
func windowStream(t *testing.T, size uint64) (*obs.WindowedLedger, *obs.WindowDoc, func() string) {
	t.Helper()
	h := sha256.New()
	sw, err := obs.NewWindowStreamWriter(h, size)
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewWindowedLedger(obs.MachineCauseNames, size)
	doc := &obs.WindowDoc{Schema: obs.WindowSchema, Window: size}
	w.OnWindow(func(win *obs.Window) error {
		doc.Windows = append(doc.Windows, *win)
		return sw.Write(win)
	})
	return w, doc, func() string { return hex.EncodeToString(h.Sum(nil)) }
}

// causeIn returns a window's cycles for one cause, or a context slice's
// cycles when ctx is set.
func causeIn(w *obs.Window, cause, ctx string) uint64 {
	if ctx != "" {
		for _, cs := range w.Contexts {
			if cs.Context == ctx {
				return cs.Cycles
			}
		}
		return 0
	}
	for _, c := range w.Causes {
		if c.Cause == cause {
			return c.Cycles
		}
	}
	return 0
}

// TestWindowE12PollutionTable regenerates EXPERIMENTS.md's E12 window
// table and the phase sums beside it: per window, each policy's
// icache-miss cycles and scheduler-context cycles, and the icache-miss
// cycles summed from the start until sieve halts, with and without the
// cold-start window 0.
func TestWindowE12PollutionTable(t *testing.T) {
	type row struct{ flushMiss, flushSched, pidMiss, pidSched uint64 }
	table := []row{
		{168, 0, 168, 0},
		{30, 112, 30, 0},
		{144, 536, 0, 0},
		{8, 112, 22, 0},
		{156, 592, 0, 0},
		{14, 104, 6, 0},
	}
	flush, _ := e12Windows(t, spec.PolicyFlush)
	pid, _ := e12Windows(t, spec.PolicyPID)
	for i, want := range table {
		f, p := &flush.Windows[i], &pid.Windows[i]
		got := row{causeIn(f, "icache-miss", ""), causeIn(f, "", schedulerContext),
			causeIn(p, "icache-miss", ""), causeIn(p, "", schedulerContext)}
		if got != want {
			t.Errorf("window %d: flush miss %d, sched %d; pid miss %d, sched %d; want %+v",
				i, got.flushMiss, got.flushSched, got.pidMiss, got.pidSched, want)
		}
	}
	// phase sums icache-miss cycles over windows from..last, where last
	// is the window sieve's final cycles land in.
	phase := func(doc *obs.WindowDoc, from int) (sum uint64, last int) {
		for i := range doc.Windows {
			if causeIn(&doc.Windows[i], "", "sieve") > 0 {
				last = i
			}
		}
		for i := from; i <= last; i++ {
			sum += causeIn(&doc.Windows[i], "icache-miss", "")
		}
		return sum, last
	}
	for _, c := range []struct {
		name                string
		doc                 *obs.WindowDoc
		windows, last       int
		whole, withoutFirst uint64
	}{
		{spec.PolicyFlush, flush, 44, 24, 1714, 1546},
		{spec.PolicyPID, pid, 35, 15, 304, 136},
	} {
		whole, last := phase(c.doc, 0)
		withoutFirst, _ := phase(c.doc, 1)
		if len(c.doc.Windows) != c.windows || last != c.last || whole != c.whole || withoutFirst != c.withoutFirst {
			t.Errorf("%s: %d windows, sieve halts in window %d, icache-miss %d (%d without window 0); want %d, %d, %d (%d)",
				c.name, len(c.doc.Windows), last, whole, withoutFirst, c.windows, c.last, c.whole, c.withoutFirst)
		}
	}
}

// TestWindowStreamDigests pins the bytes of three window streams the way
// TestTraceSuiteDigest pins the suite's trace: E12's two streams, where
// every window boundary up to sieve's halt is a context switch, and
// bubblesort alone at window size 7, where stalls straddle several windows.
func TestWindowStreamDigests(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{spec.PolicyFlush, "210464c061c299b3d4380136d525e0f182f9c0e2df3921c9230f8ca2bf03fada"},
		{spec.PolicyPID, "bdd179df3422c7ada87072be893cf5222ac3f69d5b84e7f1e397ed5fb0feee55"},
	} {
		if _, got := e12Windows(t, c.name); got != c.want {
			t.Errorf("E12 %s window stream: sha256 %s, want %s", c.name, got, c.want)
		}
	}

	b, err := tinyc.BenchmarkByName("bubblesort")
	if err != nil {
		t.Fatal(err)
	}
	im, err := tinyc.Build(b.Source, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(core.DefaultConfig(), nil)
	s := obs.NewMachineSink()
	w, doc, sum := windowStream(t, 7)
	s.Ledger.AttachWindows(w)
	m.Observe(s)
	m.Load(im)
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var straddled bool
	for i := range doc.Windows {
		for _, c := range doc.Windows[i].Causes {
			straddled = straddled || (c.Cause != "execute" && c.Cycles == 7 && i > 0 &&
				causeIn(&doc.Windows[i-1], c.Cause, "") > 0)
		}
	}
	if !straddled {
		t.Error("no stall spans a whole window at size 7")
	}
	const (
		wantWindows = 7662
		wantSHA     = "5e3ef7042cf323bce9bf9d630bfe2fcf44ed49a2a31631d32b23e0b83fab1864"
	)
	if got := sum(); got != wantSHA || len(doc.Windows) != wantWindows {
		t.Errorf("bubblesort window stream at size 7: %d windows, sha256 %s; want %d, %s",
			len(doc.Windows), got, wantWindows, wantSHA)
	}
}
