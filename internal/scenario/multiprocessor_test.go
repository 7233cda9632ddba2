package scenario

// The multiprocessor mapping: one program per CPU, every CPU with its own
// Icache and Ecache, all on one arbitrated bus over one main memory (E11).

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// workload returns n programs cycling through the integer suite.
func workload(n int) []Program {
	var benches []tinyc.Benchmark
	for _, b := range tinyc.Benchmarks() {
		if b.Class != "fp" {
			benches = append(benches, b)
		}
	}
	progs := make([]Program, n)
	for i := range progs {
		b := benches[i%len(benches)]
		progs[i] = Program{Name: b.Name, Source: b.Source, Expect: b.Expect()}
	}
	return progs
}

// sieves returns n copies of the sieve benchmark under distinct names.
func sieves(n int) []Program {
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = Program{Name: fmt.Sprintf("sieve%d", i), Source: tinyc.Benchmarks()[3].Source}
	}
	return progs
}

// runCluster runs progs one per CPU of a multiprocessor realized from ms.
// RunWith checks every program's expected output and verifies every CPU's
// ledger, so each call is itself a check.
func runCluster(t *testing.T, progs []Program, ms spec.MachineSpec) *Result {
	t.Helper()
	r, err := RunWith(progs, reorg.Default(), ms, RunOpts{Multiprocessor: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestClusterRunsCorrectly(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		progs := workload(n)
		r := runCluster(t, progs, spec.Default())
		for i, p := range r.Programs {
			if p.Output != progs[i].Expect {
				t.Fatalf("n=%d node %d output %q, want %q", n, i, p.Output, progs[i].Expect)
			}
		}
		if r.Switches != 0 {
			t.Fatalf("n=%d: one program per CPU switched %d times", n, r.Switches)
		}
	}
}

func TestNodesAreIsolated(t *testing.T) {
	// Two nodes running programs with identically-named globals must not
	// interfere: code, data, heap and stack regions are disjoint.
	src := `
var g[64];
func main() {
	var i; var s;
	i = 0;
	while (i < 64) { g[i] = i; i = i + 1; }
	s = 0; i = 0;
	while (i < 64) { s = s + g[i]; i = i + 1; }
	print(s);
}`
	progs := []Program{{Name: "a", Source: src, Expect: "2016\n"}, {Name: "b", Source: src, Expect: "2016\n"}}
	runCluster(t, progs, spec.Default())
	im, err := Images(progs, reorg.Default())
	if err != nil {
		t.Fatal(err)
	}
	if im[0].Base == im[1].Base {
		t.Fatal("images loaded at the same base")
	}
}

func TestBusContentionGrowsWithNodes(t *testing.T) {
	// Identical programs on every node so the makespan is balanced.
	s1 := runCluster(t, sieves(1), spec.Default()).Cluster()
	s4 := runCluster(t, sieves(4), spec.Default()).Cluster()
	if s1.BusWaitCycles != 0 {
		t.Fatalf("single node queued %d cycles on its own bus", s1.BusWaitCycles)
	}
	if s4.BusWaitCycles == 0 {
		t.Fatal("four nodes on one bus should contend")
	}
	// Aggregate throughput must grow with nodes (the bus is not saturated
	// at 4 nodes thanks to the on-chip Icache).
	if s4.AggregateMIPS < 2.5*s1.AggregateMIPS {
		t.Fatalf("4-node aggregate %.1f MIPS should be well above 2.5× the 1-node %.1f",
			s4.AggregateMIPS, s1.AggregateMIPS)
	}
}

func TestSharedBusCausality(t *testing.T) {
	// With the Icache disabled, every fetch goes over the shared bus: the
	// cluster must still run correctly, just slowly — the configuration
	// that shows why the on-chip cache is what makes the multiprocessor
	// viable.
	ms := spec.Default()
	ms.ICache.Disabled = true
	if r := runCluster(t, workload(2), ms); r.BusWaitCycles == 0 {
		t.Fatal("uncached fetches must contend for the bus")
	}
}

func TestLoadErrors(t *testing.T) {
	progs := []Program{{Name: "a", Source: "bogus"}, {Name: "b", Source: "bogus"}}
	if _, err := RunWith(progs, reorg.Default(), spec.Default(),
		RunOpts{Multiprocessor: true}); err == nil {
		t.Fatal("compile error not propagated")
	}
}

// TestClusterAttributionConserves runs a contended shared-bus cluster: every
// CPU's ledger must conserve against its clock (RunWith verifies each one,
// with the seam equations degraded to bounded inequalities exactly when the
// bus queued), and the arbitration waits must surface under the bus-wait
// cause.
func TestClusterAttributionConserves(t *testing.T) {
	r := runCluster(t, workload(4), spec.Default())
	if err := r.Obs.Check(); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, p := range r.Programs {
		sum += p.Cycles
	}
	if sum != r.Cycles {
		t.Fatalf("nodes ran %d cycles, result totals %d", sum, r.Cycles)
	}
	if r.BusWaitCycles == 0 {
		t.Skip("no bus contention in this configuration; bus-wait attribution untestable")
	}
	if r.Obs.Map()["bus-wait"] == 0 {
		t.Errorf("arbiter queued %d wait cycles but no node attributed any to bus-wait", r.BusWaitCycles)
	}
}

// TestRunawayPCFaultsPromptly: a node whose program jumps into unloaded
// memory must fail with the core's runaway fault, not run on to the cycle
// limit. The program overwrites its own saved return address: program 1's
// stack top is 1<<17 + 1<<16 + 3<<14 (Images' striping), and main's
// two-word frame keeps the return address at the bottom.
func TestRunawayPCFaultsPromptly(t *testing.T) {
	const retSlot = 1<<17 + 1<<16 + 3<<14 - 2
	progs := []Program{
		{Name: "sieve", Source: tinyc.Benchmarks()[3].Source},
		{Name: "smasher", Source: fmt.Sprintf("func main() { setcar(%d, 200000); }", retSlot)},
	}
	_, err := RunWith(progs, reorg.Default(), spec.Default(), RunOpts{Multiprocessor: true})
	var fe *core.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v is not a *core.FaultError", err)
	}
	if !strings.Contains(err.Error(), "smasher") {
		t.Errorf("fault %q does not name the program", err)
	}
}

// TestCPUClockSharedByArbiterAndTracer: a CPU has one clock, which its bus
// arbitration and its trace timestamps both read, and which advances with
// the running context's pipeline and with switch-time work.
func TestCPUClockSharedByArbiterAndTracer(t *testing.T) {
	c := newCPU(core.DefaultConfig(), mem.New(), &mem.Arbiter{})
	im, err := Images(workload(1), reorg.Default())
	if err != nil {
		t.Fatal(err)
	}
	m := c.add("prog", im[0])
	check := func(want uint64) {
		t.Helper()
		if bus, trace := c.host.Bus.Now(), c.sink.Cycle(); bus != want || trace != want {
			t.Fatalf("bus clock %d, trace clock %d, want both %d", bus, trace, want)
		}
	}
	check(0)
	if _, _, err := m.RunQuantum(500); err != nil {
		t.Fatal(err)
	}
	check(m.CPU.Stats.Cycles)
	c.base += 64 // switch-time work
	check(m.CPU.Stats.Cycles + 64)
}
