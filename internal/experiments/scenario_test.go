package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/jsondoc"
	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

func benchesByName(t *testing.T, names ...string) []tinyc.Benchmark {
	t.Helper()
	var out []tinyc.Benchmark
	for _, n := range names {
		b, err := tinyc.BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestScenarioSweepDeterminism is the scenario acceptance gate in-process: a
// (1 workload × 1 quantum × 2 policies) grid replayed cold and hot over a
// shared memo store must produce byte-identical documents, with the policy
// invariants visible in the folded cells.
func TestScenarioSweepDeterminism(t *testing.T) {
	defer Configure(0, 0, false)

	workloads := []ScenarioWorkload{{Name: "bubblesort+sieve", Benches: benchesByName(t, "bubblesort", "sieve")}}
	quanta := []int{2000}

	dir := t.TempDir()
	var docs [][]byte
	var doc *ScenarioDoc
	for pass, label := range []string{"cold", "hot"} {
		e := Configure(2, 0, false)
		store, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.Store = store
		doc, err = ScenarioSweep(context.Background(), workloads, quanta, nil)
		if err != nil {
			t.Fatalf("%s pass: %v", label, err)
		}
		b, err := jsondoc.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
		if pass == 1 && e.MemoHits() == 0 {
			t.Error("hot pass replayed nothing from the shared store")
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("cold and hot scenario documents differ")
	}

	if len(doc.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (flush, pid)", len(doc.Cells))
	}
	var flush, pid *ScenarioCellResult
	for i := range doc.Cells {
		switch doc.Cells[i].Policy {
		case spec.PolicyFlush:
			flush = &doc.Cells[i]
		case spec.PolicyPID:
			pid = &doc.Cells[i]
		}
	}
	if flush == nil || pid == nil {
		t.Fatal("policy cells missing from the grid")
	}
	if flush.Digest == pid.Digest {
		t.Error("flush and pid cells share a spec digest — the scenario block is not memo-keyed")
	}
	fattr, pattr := flush.Result.Obs.Map(), pid.Result.Obs.Map()
	if fattr["context-switch"] == 0 || fattr["flush-refill"] == 0 {
		t.Errorf("flush cell lacks switch overhead: %+v", fattr)
	}
	if pattr["context-switch"] != 0 || pattr["flush-refill"] != 0 {
		t.Errorf("pid cell charged switch overhead: %+v", pattr)
	}
	if pid.Result.Cycles >= flush.Result.Cycles {
		t.Errorf("pid total %d not below flush's %d", pid.Result.Cycles, flush.Result.Cycles)
	}

	// Round trip and rendering.
	back, err := ParseScenarioDoc(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(doc.Cells) {
		t.Fatal("document round trip lost cells")
	}
	if _, err := ParseScenarioDoc([]byte(`{"schema":"mipsx-bench/v1"}`)); err == nil {
		t.Fatal("foreign schema parsed as a scenario document")
	}
	tbl := ScenarioTable(doc).String()
	for _, want := range []string{"bubblesort+sieve", "flush", "pid", "ctx-switch"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("scenario table is missing %q", want)
		}
	}
}

// TestExploreScenarioAxis: a sweep over scenario.policy turns each design
// point into one multiprogrammed cell over the benchmark list; Explore's own
// per-point conservation check runs on the folded attribution.
func TestExploreScenarioAxis(t *testing.T) {
	defer Configure(0, 0, false)
	Configure(2, 0, false)

	sw := spec.Sweep{Axes: []spec.Axis{
		{Path: "scenario.quantum", Values: []any{float64(2000)}},
		{Path: "scenario.policy", Values: []any{spec.PolicyFlush, spec.PolicyPID}},
	}}
	doc, err := Explore(context.Background(), sw, benchesByName(t, "bubblesort", "sieve"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(doc.Points))
	}
	for i := range doc.Points {
		p := &doc.Points[i]
		if p.CPI <= 0 || p.Cycles == 0 || p.CodeWords == 0 {
			t.Errorf("point %s: degenerate objectives", p.Label)
		}
		cs := p.Attribution["context-switch"]
		if p.Spec.Scenario.Policy == spec.PolicyFlush && cs == 0 {
			t.Errorf("point %s: flush policy shows no context-switch cycles", p.Label)
		}
		if p.Spec.Scenario.Policy == spec.PolicyPID && cs != 0 {
			t.Errorf("point %s: pid policy charged %d context-switch cycles", p.Label, cs)
		}
	}
}

// TestFailedScenarioCellAccountsItsCycles: a scenario cell that fails after
// its programs ran accounts the cycles they simulated, as a failed machine
// cell does. fib with a wrong expected output fails the output check, and
// the engine's total and the cell's timing-row attribution both carry the
// cycles the scenario ran.
func TestFailedScenarioCellAccountsItsCycles(t *testing.T) {
	ms := spec.Default()
	scn := spec.DefaultScenario()
	ms.Scenario = &scn
	fib := benchesByName(t, "fib")
	ran, err := scenario.Run(scenarioPrograms(fib), reorg.Default(), ms)
	if err != nil {
		t.Fatal(err)
	}
	fib[0].Expect = func() string { return "wrong\n" }

	e := &Engine{Workers: 1, Record: true}
	var out scenario.Result
	err = e.Run(context.Background(), []Cell{scenarioCell("fib", fib, ms, &out)})
	if err == nil || !strings.Contains(err.Error(), "wrong output") {
		t.Fatalf("err = %v, want the wrong-output failure", err)
	}
	timings := e.Timings()
	if len(timings) != 1 || timings[0].Err == "" {
		t.Fatalf("timing rows %+v, want the one failed cell", timings)
	}
	var attributed uint64
	for _, v := range timings[0].Attribution {
		attributed += v
	}
	if ran.Cycles == 0 || e.Cycles() != ran.Cycles || attributed != ran.Cycles {
		t.Fatalf("engine accounted %d cycles, the cell's row attributes %d; the scenario ran %d",
			e.Cycles(), attributed, ran.Cycles)
	}
}
