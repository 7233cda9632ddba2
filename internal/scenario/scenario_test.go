package scenario

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// testPrograms picks two real compiler benchmarks (one store-heavy so the
// flush policy has dirty Ecache lines to write back).
func testPrograms(t *testing.T) []Program {
	t.Helper()
	var progs []Program
	for _, n := range []string{"bubblesort", "sieve"} {
		b, err := tinyc.BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, Program{Name: b.Name, Source: b.Source, Expect: b.Expect()})
	}
	return progs
}

// runPolicy executes the standard two-program workload under one policy.
// Run verifies conservation internally, so every call is itself a check.
func runPolicy(t *testing.T, policy string, quantum int) *Result {
	t.Helper()
	ms := spec.Default()
	scn := spec.DefaultScenario()
	scn.Policy = policy
	scn.Quantum = quantum
	ms.Scenario = &scn
	r, err := Run(testPrograms(t), reorg.Default(), ms)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFlushVsPID is the headline comparison: same workload, same quantum,
// the two Icache switch policies. Flush pays software overhead, Ecache
// write-backs and cold-Icache refills on every switch; PID tagging pays
// none of them and must run strictly cheaper.
func TestFlushVsPID(t *testing.T) {
	const quantum = 2000
	fl := runPolicy(t, spec.PolicyFlush, quantum)
	pd := runPolicy(t, spec.PolicyPID, quantum)

	if fl.Switches == 0 || pd.Switches == 0 {
		t.Fatalf("quantum %d produced no switches (flush %d, pid %d)", quantum, fl.Switches, pd.Switches)
	}

	// Flush: both scenario causes carry the overhead the run accounted.
	fattr := fl.Obs.Map()
	if fl.SwitchCycles == 0 || fattr["context-switch"] != fl.SwitchCycles {
		t.Fatalf("flush context-switch row %d, want nonzero %d", fattr["context-switch"], fl.SwitchCycles)
	}
	if fl.FlushStalls == 0 || fattr["flush-refill"] != fl.FlushStalls {
		t.Fatalf("flush flush-refill row %d, want nonzero %d", fattr["flush-refill"], fl.FlushStalls)
	}

	// PID: both rows provably zero.
	pattr := pd.Obs.Map()
	if pd.SwitchCycles != 0 || pd.FlushStalls != 0 ||
		pattr["context-switch"] != 0 || pattr["flush-refill"] != 0 {
		t.Fatalf("pid policy charged switch overhead: %+v", pattr)
	}

	// The pollution argument, measured: tagged lines survive switches.
	if pd.IcacheMisses >= fl.IcacheMisses {
		t.Errorf("pid Icache misses %d not below flush's %d", pd.IcacheMisses, fl.IcacheMisses)
	}
	if pd.Cycles >= fl.Cycles {
		t.Errorf("pid total %d cycles not below flush's %d", pd.Cycles, fl.Cycles)
	}

	// Both policies are functionally identical per program: same instruction
	// streams retire, only the timing differs. (Outputs were already checked
	// against Expect inside Run.)
	for i := range fl.Programs {
		if fl.Programs[i].Instructions != pd.Programs[i].Instructions {
			t.Errorf("%s issued %d instructions under flush, %d under pid",
				fl.Programs[i].Name, fl.Programs[i].Instructions, pd.Programs[i].Instructions)
		}
		if fl.Programs[i].Output != pd.Programs[i].Output {
			t.Errorf("%s output differs between policies", fl.Programs[i].Name)
		}
	}
}

// TestQuantumScaling: a longer quantum means fewer switches and (under
// flush) less total overhead.
func TestQuantumScaling(t *testing.T) {
	short := runPolicy(t, spec.PolicyFlush, 1000)
	long := runPolicy(t, spec.PolicyFlush, 20000)
	if long.Switches >= short.Switches {
		t.Fatalf("quantum 20000 switched %d times, quantum 1000 %d", long.Switches, short.Switches)
	}
	if long.SwitchCycles >= short.SwitchCycles {
		t.Errorf("longer quantum did not amortize switch overhead: %d vs %d", long.SwitchCycles, short.SwitchCycles)
	}
}

// TestDeterminism: two identical runs serialize byte-identically — the
// property the memoized scenario cells and the CI golden gate rely on.
func TestDeterminism(t *testing.T) {
	a := runPolicy(t, spec.PolicyFlush, 2000)
	b := runPolicy(t, spec.PolicyFlush, 2000)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("two identical runs differ:\n%s\n%s", aj, bj)
	}
}

// TestRunRejectsBadInputs covers the guard rails.
func TestRunRejectsBadInputs(t *testing.T) {
	if _, err := Run(testPrograms(t), reorg.Default(), spec.Default()); err == nil {
		t.Fatal("spec without a scenario block accepted")
	}
	ms := spec.Default()
	scn := spec.DefaultScenario()
	ms.Scenario = &scn
	if _, err := Run(nil, reorg.Default(), ms); err == nil {
		t.Fatal("empty program list accepted")
	}
	bad := ms
	badScn := scn
	badScn.Quantum = -1
	bad.Scenario = &badScn
	if _, err := Run(testPrograms(t), reorg.Default(), bad); err == nil {
		t.Fatal("invalid quantum accepted")
	}
}

// TestRunRejectsInstructionTracer: pipe spans are stamped with the retiring
// context's own cycle count, while cache spans, instants and the bus read
// the CPU's clock, so under time slicing pipe spans would start before the
// spans recorded ahead of them. RunWith refuses an instruction-level tracer
// before recording anything; a tracer without Instrs traces the run.
func TestRunRejectsInstructionTracer(t *testing.T) {
	ms := spec.Default()
	scn := spec.DefaultScenario()
	ms.Scenario = &scn
	for _, instrs := range []bool{true, false} {
		tr := &obs.Tracer{Instrs: instrs}
		if err := tr.StartStream(io.Discard, 0); err != nil {
			t.Fatal(err)
		}
		_, err := RunWith(testPrograms(t), reorg.Default(), ms, RunOpts{Tracer: tr})
		if cerr := tr.CloseStream(); cerr != nil {
			t.Fatal(cerr)
		}
		switch {
		case instrs && (err == nil || !strings.Contains(err.Error(), "Tracer.Instrs")):
			t.Fatalf("Instrs tracer: err %v, want a rejection naming Tracer.Instrs", err)
		case instrs && tr.Len() != 0:
			t.Fatalf("rejected run recorded %d events", tr.Len())
		case !instrs && err != nil:
			t.Fatalf("tracer without Instrs: %v", err)
		case !instrs && tr.Len() == 0:
			t.Fatal("tracer without Instrs recorded no events")
		}
	}
}

// TestRunRejectsRepeatedNames: window rows, results and errors are keyed by
// program name, so two contexts sharing one (or a program named after the
// scheduler's own row) would silently merge. The entry point refuses them
// and names the culprit.
func TestRunRejectsRepeatedNames(t *testing.T) {
	ms := spec.Default()
	scn := spec.DefaultScenario()
	ms.Scenario = &scn
	sieve := testPrograms(t)[1]
	for _, name := range []string{sieve.Name, schedulerContext} {
		progs := []Program{sieve, sieve}
		progs[0].Name = name
		_, err := Run(progs, reorg.Default(), ms)
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("programs %q, %q: err %v, want a rejection naming %q", progs[0].Name, progs[1].Name, err, name)
		}
	}
}
