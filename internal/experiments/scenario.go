package experiments

// The multiprogramming-scenario sweep behind `mipsx-bench -scenario`: a grid
// of (workload × quantum × Icache policy) scenario runs (internal/scenario),
// one memoizable engine cell each, folded into a deterministic document the
// CI scenario gate diffs against SCENARIO_baseline.json. The headline
// quantity is the switch-policy cost split the single-program tables cannot
// see: under the flush policy every switch pays software overhead
// (context-switch), Ecache write-backs (flush-refill) and the refill misses
// of a cold Icache; under the PID-tagged policy all three vanish — the
// paper's process-ID/register-bank argument, measured.

import (
	"context"
	"fmt"

	"repro/internal/jsondoc"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// ScenarioSchema identifies the scenario sweep document format.
const ScenarioSchema = "mipsx-scenario/v1"

// ScenarioCellResult is one grid cell: a workload run at one (quantum,
// policy) scheduler configuration.
type ScenarioCellResult struct {
	// Workload names the member set ("bubblesort+sieve").
	Workload string   `json:"workload"`
	Members  []string `json:"members"`
	Quantum  int      `json:"quantum"`
	Policy   string   `json:"policy"`
	// Digest is the realized spec's content identity (Scenario included),
	// shared with the cell's memo key.
	Digest string          `json:"digest"`
	Result scenario.Result `json:"result"`
}

// ScenarioDoc is the full sweep report.
type ScenarioDoc struct {
	Schema string `json:"schema"`
	Scheme string `json:"scheme"`
	// SwitchCost is the per-switch software overhead the flush policy pays.
	SwitchCost int                  `json:"switch_cost"`
	Cells      []ScenarioCellResult `json:"cells"`
}

// ParseScenarioDoc reads a document strictly (jsondoc.Parse), rejecting
// other schemas.
func ParseScenarioDoc(b []byte) (*ScenarioDoc, error) {
	return jsondoc.Parse[ScenarioDoc](b, ScenarioSchema, "a scenario document")
}

// scenarioPrograms converts benchmarks to scenario members (with their
// expected outputs, so every cell also validates functional correctness
// across switches).
func scenarioPrograms(benches []tinyc.Benchmark) []scenario.Program {
	progs := make([]scenario.Program, len(benches))
	for i, b := range benches {
		progs[i] = scenario.Program{Name: b.Name, Source: b.Source, Expect: b.Expect()}
	}
	return progs
}

// scenarioKey hashes a scenario cell's full input closure: every member's
// name, source and packed image (covering compiler, reorganizer and the
// packing layout), the scheme, and the machine spec's digest — which covers
// the quantum, policy and switch cost through the spec's scenario block.
func scenarioKey(benches []tinyc.Benchmark, ms spec.MachineSpec) (string, error) {
	ims, err := scenario.Images(scenarioPrograms(benches), ms.Branch)
	if err != nil {
		return "", err
	}
	k := newKey("scenario")
	k.num("members", uint64(len(benches)))
	for i, b := range benches {
		k.str(fmt.Sprintf("member[%d].name", i), b.Name)
		k.str(fmt.Sprintf("member[%d].source", i), b.Source)
		k.num(fmt.Sprintf("member[%d].base", i), uint64(ims[i].Base))
		k.words(fmt.Sprintf("member[%d].image", i), ims[i].Words)
	}
	k.str("scheme", ms.Branch.String())
	k.str("spec", ms.Digest())
	return k.sum(), nil
}

// runScenario runs a scenario and accounts its cycles and attribution to
// the cell running under ctx on every exit path, like runMachine does for a
// single machine: a failed run accounts the partial result scenario.RunWith
// returns with its error. Every CPU's ledger is conservation-verified
// inside scenario.RunWith before a successful result is returned.
func runScenario(ctx context.Context, progs []scenario.Program, ms spec.MachineSpec, opts scenario.RunOpts, out *scenario.Result) error {
	r, err := scenario.RunWith(progs, ms.Branch, ms, opts)
	if r != nil {
		account(ctx, r.Cycles, r.Obs.Map())
	}
	if err != nil {
		return err
	}
	*out = *r
	return nil
}

// scenarioCell builds a memoizable cell running the benchmarks as one
// multiprogrammed scenario on the machine the spec names. Conservation is
// verified inside the run before the result is built, so — like every
// benchmark cell — a live scenario cell is a standing conservation check.
func scenarioCell(id string, benches []tinyc.Benchmark, ms spec.MachineSpec, out *scenario.Result) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			return runScenario(ctx, scenarioPrograms(benches), ms, scenario.RunOpts{}, out)
		},
		Memo: &CellMemo{
			Key: func() (string, error) { return scenarioKey(benches, ms) },
			Out: out,
		},
	}
}

// ScenarioWorkload is one member set of the sweep grid.
type ScenarioWorkload struct {
	Name    string
	Benches []tinyc.Benchmark
}

// DefaultScenarioWorkloads returns the sweep's benchmark pairs: one
// loop-heavy pair whose working sets fit the Icache together (flushing
// mostly costs refills) and one pointer/recursion pair that genuinely
// competes for blocks.
func DefaultScenarioWorkloads() []ScenarioWorkload {
	pick := func(name string, members ...string) ScenarioWorkload {
		w := ScenarioWorkload{Name: name}
		for _, m := range members {
			b, err := tinyc.BenchmarkByName(m)
			if err != nil {
				panic("experiments: " + err.Error())
			}
			w.Benches = append(w.Benches, b)
		}
		return w
	}
	return []ScenarioWorkload{
		pick("bubblesort+sieve", "bubblesort", "sieve"),
		pick("quicksort+treeins", "quicksort", "treeins"),
	}
}

// DefaultScenarioQuanta is the sweep's quantum axis: a short quantum where
// switch costs dominate, and a long one where they amortize.
var DefaultScenarioQuanta = []int{2_000, 20_000}

// ScenarioSweep evaluates the (workload × quantum × policy) grid under the
// default branch scheme and folds it into a document. Cells fan out through
// the default engine (sharing -parallel and the memo store with everything
// else); the grid keeps workload-major, quantum-then-policy order so the
// document is deterministic.
func ScenarioSweep(ctx context.Context, workloads []ScenarioWorkload, quanta []int, policies []string) (*ScenarioDoc, error) {
	if workloads == nil {
		workloads = DefaultScenarioWorkloads()
	}
	if quanta == nil {
		quanta = DefaultScenarioQuanta
	}
	if policies == nil {
		policies = []string{spec.PolicyFlush, spec.PolicyPID}
	}
	base := spec.Default()
	doc := &ScenarioDoc{
		Schema:     ScenarioSchema,
		Scheme:     base.Branch.String(),
		SwitchCost: spec.DefaultScenario().SwitchCost,
	}

	type slot struct {
		cell ScenarioCellResult
		out  scenario.Result
		ms   spec.MachineSpec
	}
	var slots []*slot
	var cells []Cell
	for _, w := range workloads {
		for _, q := range quanta {
			for _, pol := range policies {
				scn := spec.DefaultScenario()
				scn.Quantum = q
				scn.Policy = pol
				ms := base
				ms.Scenario = &scn
				if err := ms.Validate(); err != nil {
					return nil, err
				}
				s := &slot{ms: ms}
				s.cell = ScenarioCellResult{
					Workload: w.Name,
					Quantum:  q,
					Policy:   pol,
					Digest:   ms.Digest(),
				}
				for _, b := range w.Benches {
					s.cell.Members = append(s.cell.Members, b.Name)
				}
				slots = append(slots, s)
				cells = append(cells, scenarioCell(
					fmt.Sprintf("SCN/%s/q%d/%s", w.Name, q, pol),
					w.Benches, ms, &s.out))
			}
		}
	}
	if err := DefaultEngine().Run(ctx, cells); err != nil {
		return nil, err
	}
	for _, s := range slots {
		s.cell.Result = s.out
		doc.Cells = append(doc.Cells, s.cell)
	}
	return doc, nil
}

// ScenarioTable renders the sweep grid: total cycles, CPI and the
// switch-cost decomposition per cell. The flush rows carry nonzero
// context-switch and flush-refill cycles; the pid rows provably carry zero.
func ScenarioTable(d *ScenarioDoc) *Table {
	t := &Table{
		ID: "SCN",
		Title: fmt.Sprintf("Multiprogramming scenarios (%s, switch cost %d): flush vs PID-tagged Icache",
			d.Scheme, d.SwitchCost),
		Paper: "the process-identifier discussion: flushing on every switch vs tagging lines with PIDs",
		Header: []string{"workload", "quantum", "policy", "cycles", "CPI",
			"switches", "ctx-switch", "flush-refill", "icache-miss"},
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		r := &c.Result
		attr := r.Obs.Map()
		t.AddRow(c.Workload, c.Quantum, c.Policy,
			r.Cycles, fmt.Sprintf("%.4f", r.CPI()),
			r.Switches, attr["context-switch"], attr["flush-refill"], attr["icache-miss"])
	}
	t.Notes = append(t.Notes,
		"cycles include scheduler overhead: per-switch software cost (context-switch) and Ecache write-back flushes (flush-refill)",
		"pid rows must show zero in both switch-cost columns — the conservation check enforces it per cell")
	return t
}
