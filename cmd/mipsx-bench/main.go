// Command mipsx-bench regenerates the paper's evaluation: every table,
// figure and quantitative claim, printed in paper-style rows alongside the
// paper's own numbers (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	mipsx-bench                          # every experiment, parallel
//	mipsx-bench -only E1                 # a single experiment by id
//	mipsx-bench -parallel 1              # serial (reference) execution
//	mipsx-bench -json > BENCH.json       # machine-readable results+timings
//	mipsx-bench -check BENCH_baseline.json
//	                                     # fail (exit 1) if any table drifts
//	                                     # from the recorded baseline, or,
//	                                     # when both ran the same experiments,
//	                                     # the cycle total or the attribution
//	mipsx-bench -cache .benchcache       # persist the content-addressed
//	                                     # result cache across runs
//	mipsx-bench -progress                # live cells/hit-rate/rate lines
//	mipsx-bench -json -obs-overhead      # also measure observation overhead
//	mipsx-bench -scenario                # multiprogramming sweep: workload ×
//	                                     # quantum × Icache switch policy
//	mipsx-bench -scenario -check SCENARIO_baseline.json
//	                                     # byte-exact golden gate on the
//	                                     # scenario document
//
// Every run checks cycle-attribution conservation: the engine-wide
// attribution (summed over live and replayed cells) must equal
// total_cycles_simulated, and each live machine run verifies its own
// ledger against its per-unit counters before its cell completes.
//
// Tables are byte-identical at every -parallel level and with the result
// cache cold or hot; only the timing and memo fields of the JSON report
// vary. CI records the report as BENCH_pr.json and gates merges on -check
// against the checked-in baseline, running the check twice against one
// cache directory (cold, then hot) so an unsound memo key surfaces as table
// drift.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsondoc"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this id (E1..E11)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for experiment cells (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock budget (0 = none)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable report on stdout instead of tables")
	check := flag.String("check", "", "baseline JSON report; exit 1 if any table differs (and, over the same experiments, the cycle total or attribution)")
	cacheDir := flag.String("cache", "",
		"directory backing the content-addressed result cache (empty = in-memory only)")
	progress := flag.Bool("progress", false,
		"print live progress to stderr (cells done/total, memo hits of lookups, cells/sec)")
	obsOverhead := flag.Bool("obs-overhead", false,
		"measure the observation substrate's wall-clock overhead and record it in the report")
	scenarioMode := flag.Bool("scenario", false,
		"run the multiprogramming scenario sweep (workload × quantum × Icache switch policy) instead of the experiment tables")
	flag.Parse()

	eng := experiments.Configure(*parallel, *timeout, *jsonOut || *check != "")
	store, err := experiments.NewMemoStore(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mipsx-bench: %v\n", err)
		os.Exit(1)
	}
	eng.Store = store
	if *progress {
		eng.Progress = os.Stderr
	}

	if *scenarioMode {
		os.Exit(runScenario(eng, *jsonOut, *check))
	}

	selected := experiments.Experiments
	if *only != "" {
		selected = nil
		for _, e := range experiments.Experiments {
			if e.ID == *only {
				selected = []experiments.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: unknown experiment %q\n", *only)
			os.Exit(2)
		}
	}

	tables := make([]*experiments.Table, len(selected))
	perExp := make([]time.Duration, len(selected))
	start := time.Now()
	for i, e := range selected {
		t0 := time.Now()
		tb, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		tables[i] = tb
		perExp[i] = time.Since(t0)
	}
	wall := time.Since(start)
	eng.FlushProgress()

	doc := experiments.NewBenchDoc(tables, perExp, wall, *parallel, false, false, eng)
	if doc.MemoWriteErrors > 0 || doc.MemoCorrupt > 0 {
		fmt.Fprintf(os.Stderr, "mipsx-bench: WARNING: memo store %s: %d results not recorded, %d corrupt entries re-run\n",
			*cacheDir, doc.MemoWriteErrors, doc.MemoCorrupt)
	}

	// Conservation gate: every simulated cycle this run accounted must carry
	// a cause (live cells verify per machine; replayed cells carry their
	// recorded breakdown). A violation is a correctness bug, not drift.
	if !doc.AttributionConserved {
		fmt.Fprintf(os.Stderr, "mipsx-bench: attribution conservation violated: %d attributed != %d simulated\n",
			doc.AttributedCycles, doc.TotalCyclesSimulated)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mipsx-bench: attribution conserved: %d cycles across %d causes\n",
		doc.AttributedCycles, len(doc.Attribution))

	if *obsOverhead {
		o, err := experiments.MeasureObsOverhead(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: -obs-overhead: %v\n", err)
			os.Exit(1)
		}
		doc.ObsOverhead = o
		fmt.Fprintf(os.Stderr, "mipsx-bench: %s\n", o)
	}

	if *check != "" {
		if code := compare(*check, doc); code != 0 {
			os.Exit(code)
		}
	}

	if *jsonOut {
		b, err := jsondoc.Marshal(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	if *check == "" {
		for _, tb := range tables {
			fmt.Println(tb)
		}
	}
}

// runScenario executes the default scenario sweep and, like the experiment
// path, optionally emits JSON and diffs against a recorded baseline. The
// scenario document carries no timings, so the golden comparison is simple
// byte equality — any drift is a simulation change, never noise. Every cell
// is conservation-verified inside scenario.Run before it reaches the
// document, and the pid-policy cells' zero-overhead invariant is re-checked
// here so the gate fails loudly even on a reseeded baseline.
func runScenario(eng *experiments.Engine, jsonOut bool, check string) int {
	doc, err := experiments.ScenarioSweep(context.Background(), nil, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mipsx-bench: -scenario: %v\n", err)
		return 1
	}
	eng.FlushProgress()
	for i := range doc.Cells {
		c := &doc.Cells[i]
		attr := c.Result.Obs.Map()
		if c.Policy == "pid" && (attr["context-switch"] != 0 || attr["flush-refill"] != 0) {
			fmt.Fprintf(os.Stderr, "mipsx-bench: -scenario: %s/q%d/pid charged switch overhead (%d/%d)\n",
				c.Workload, c.Quantum, attr["context-switch"], attr["flush-refill"])
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "mipsx-bench: scenario sweep: %d cells, all conservation-verified\n", len(doc.Cells))

	out, err := jsondoc.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mipsx-bench: -scenario: %v\n", err)
		return 1
	}
	if check != "" {
		want, err := os.ReadFile(check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: -scenario -check: %v\n", err)
			return 1
		}
		if _, err := experiments.ParseScenarioDoc(want); err != nil {
			fmt.Fprintf(os.Stderr, "mipsx-bench: -scenario -check %s: %v\n", check, err)
			return 1
		}
		if !bytes.Equal(out, want) {
			fmt.Fprintf(os.Stderr, "mipsx-bench: scenario document drifted from %s (%d vs %d bytes); reseed with make scenario-baseline if intentional\n",
				check, len(out), len(want))
			return 1
		}
		fmt.Fprintf(os.Stderr, "mipsx-bench: scenario document matches %s\n", check)
	}
	if jsonOut {
		os.Stdout.Write(out)
	} else if check == "" {
		fmt.Println(experiments.ScenarioTable(doc))
	}
	return 0
}

// compare diffs this run's report against a recorded baseline report:
// experiments present in both must render identically (the simulated
// results are deterministic; only timings may differ). When the run and the
// baseline cover the same experiments, the simulated-cycle total must match
// too, and so must every cause of the attribution when the baseline carries
// one — a refactor must leave every simulated cycle on the same cause, where
// identical tables are not enough. Over the same experiments it also
// reports the wall-clock ratio, the bench-regression signal CI tracks.
func compare(path string, doc *experiments.BenchDoc) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mipsx-bench: -check: %v\n", err)
		return 1
	}
	base, err := experiments.ParseBenchDoc(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mipsx-bench: -check %s: %v\n", path, err)
		return 1
	}
	baseByID := make(map[string]experiments.ExpResult, len(base.Experiments))
	for _, e := range base.Experiments {
		baseByID[e.ID] = e
	}
	drift := 0
	sameExps := len(doc.Experiments) == len(base.Experiments)
	for _, e := range doc.Experiments {
		want, ok := baseByID[e.ID]
		if !ok {
			sameExps = false
			fmt.Fprintf(os.Stderr, "mipsx-bench: %s: not in baseline %s (new experiment? reseed the baseline)\n", e.ID, path)
			continue
		}
		if e.Text != want.Text {
			drift++
			fmt.Fprintf(os.Stderr, "mipsx-bench: %s drifted from %s\n--- baseline ---\n%s--- current ---\n%s",
				e.ID, path, want.Text, e.Text)
		}
	}
	checkAttr := sameExps && len(base.Attribution) > 0
	if sameExps && doc.TotalCyclesSimulated != base.TotalCyclesSimulated {
		drift++
		fmt.Fprintf(os.Stderr, "mipsx-bench: total_cycles_simulated drifted: %d, baseline %d\n",
			doc.TotalCyclesSimulated, base.TotalCyclesSimulated)
	}
	if checkAttr {
		for cause, n := range base.Attribution {
			if doc.Attribution[cause] != n {
				drift++
				fmt.Fprintf(os.Stderr, "mipsx-bench: attribution[%s] drifted: %d, baseline %d\n",
					cause, doc.Attribution[cause], n)
			}
		}
		for cause, n := range doc.Attribution {
			if _, ok := base.Attribution[cause]; !ok {
				drift++
				fmt.Fprintf(os.Stderr, "mipsx-bench: attribution[%s]=%d absent from baseline\n", cause, n)
			}
		}
	}
	if drift > 0 {
		fmt.Fprintf(os.Stderr, "mipsx-bench: %d experiment(s) drifted from the recorded golden tables\n", drift)
		return 1
	}
	fmt.Fprintf(os.Stderr, "mipsx-bench: all %d experiment tables match %s\n", len(doc.Experiments), path)
	if sameExps {
		fmt.Fprintf(os.Stderr, "mipsx-bench: total cycles match: %d\n", doc.TotalCyclesSimulated)
	}
	if checkAttr {
		fmt.Fprintf(os.Stderr, "mipsx-bench: attribution matches: %d cycles across %d causes\n",
			doc.AttributedCycles, len(doc.Attribution))
	}
	if lookups := doc.MemoHits + doc.MemoMisses; lookups > 0 {
		fmt.Fprintf(os.Stderr, "mipsx-bench: memo hits %d of %d lookups (%.0f%%)\n",
			doc.MemoHits, lookups, 100*doc.MemoHitRate)
	}
	if sameExps && base.TotalWallMS > 0 && doc.TotalWallMS > 0 {
		fmt.Fprintf(os.Stderr, "mipsx-bench: wall %.0f ms vs baseline %.0f ms (%.2fx; baseline parallel=%d, now parallel=%d, GOMAXPROCS=%d)\n",
			doc.TotalWallMS, base.TotalWallMS, base.TotalWallMS/doc.TotalWallMS,
			base.Parallel, doc.Parallel, doc.GOMAXPROCS)
	}
	return 0
}
