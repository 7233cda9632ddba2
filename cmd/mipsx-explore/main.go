// Command mipsx-explore sweeps the machine-spec design space and reports
// the Pareto frontier over (CPI, Icache area in bits, static code size) —
// Table 1 generalized from one axis to any spec field, with each point's
// cycle-attribution decomposition explaining its shape.
//
// A sweep is a base machine spec plus axes; each axis names a spec field by
// its JSON path ("icache.sets", "ecache.repl", "bus.latency", or the
// virtual "scheme") and the values to sweep. Points fan out through the
// same content-addressed experiment engine as mipsx-bench, so sweeps share
// cached simulations with the experiment tables and with earlier sweeps.
//
// Usage:
//
//	mipsx-explore                              # the Table 1 scheme axis
//	mipsx-explore -axis icache.sets=2,4,8 -axis icache.fetch_back=1,2,4
//	mipsx-explore -axis scheme=2/optional,1/none -benches fib,sieve
//	mipsx-explore -sweep sweep.json -json      # sweep definition from a file
//	mipsx-explore -cache .benchcache           # share mipsx-bench's cache
//	mipsx-explore -check EXPLORE_baseline.json # fail on any drift
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/jsondoc"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// stdout is where the command writes its output; a failed write exits 1.
var stdout = cli.Stdout("mipsx-explore")

func main() {
	sweepPath := flag.String("sweep", "", "sweep definition JSON ({\"base\": <spec>, \"axes\": [...]})")
	basePath := flag.String("base", "", "machine-spec JSON for the sweep's base point (default: the machine as built)")
	var axes []spec.Axis
	flag.Func("axis", "swept axis as path=v1,v2,... (repeatable; e.g. icache.sets=2,4,8 or scheme=2/optional,1/none)",
		func(s string) error {
			ax, err := spec.ParseAxis(s)
			if err != nil {
				return err
			}
			axes = append(axes, ax)
			return nil
		})
	benchList := flag.String("benches", "", "comma-separated tinyc benchmark names (default: the Table 1 integer suite)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep cells (1 = serial)")
	cacheDir := flag.String("cache", "", "directory backing the content-addressed result cache (empty = in-memory only)")
	jsonOut := flag.Bool("json", false, "emit the mipsx-explore/v1 JSON document on stdout instead of tables")
	check := flag.String("check", "", "baseline JSON document; exit 1 if the sweep's document differs")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mipsx-explore [flags]")
		os.Exit(2)
	}

	sw, err := loadSweep(*sweepPath, *basePath, axes)
	if err != nil {
		fail(err)
	}
	benches, err := pickBenches(*benchList)
	if err != nil {
		fail(err)
	}
	var want []byte
	if *check != "" {
		if want, err = os.ReadFile(*check); err != nil {
			fail(err)
		}
		// A file that is not an explorer document is one error before the
		// sweep runs, not a drift report of two unrelated documents.
		if _, err := experiments.ParseExploreDoc(want); err != nil {
			fail(fmt.Errorf("-check %s: %w", *check, err))
		}
	}

	eng := experiments.Configure(*parallel, 0, false)
	store, err := experiments.NewMemoStore(*cacheDir)
	if err != nil {
		fail(err)
	}
	eng.Store = store

	doc, err := experiments.Explore(context.Background(), sw, benches)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "mipsx-explore: %d points (%d on the frontier), memo hits %d of %d lookups\n",
		len(doc.Points), doc.FrontierSize, eng.MemoHits(), eng.MemoHits()+eng.MemoMisses())

	got, err := jsondoc.Marshal(doc)
	if err != nil {
		fail(err)
	}
	if *check != "" {
		if string(want) != string(got) {
			fmt.Fprintf(os.Stderr, "mipsx-explore: document drifted from %s\n--- baseline ---\n%s--- current ---\n%s",
				*check, want, got)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mipsx-explore: document matches %s\n", *check)
	}

	if *jsonOut {
		stdout.Write(got)
		return
	}
	if *check == "" {
		fmt.Fprintln(stdout, experiments.PointsTable(doc))
		fmt.Fprintln(stdout, experiments.FrontierTable(doc))
	}
}

// loadSweep assembles the sweep from -sweep, -base and -axis (later sources
// layer over the file: -base replaces the file's base, -axis appends). With
// nothing given, the sweep is the Table 1 branch-scheme axis.
func loadSweep(sweepPath, basePath string, axes []spec.Axis) (spec.Sweep, error) {
	var sw spec.Sweep
	if sweepPath != "" {
		b, err := os.ReadFile(sweepPath)
		if err != nil {
			return sw, err
		}
		if sw, err = spec.ParseSweep(b); err != nil {
			return sw, err
		}
	}
	if basePath != "" {
		b, err := os.ReadFile(basePath)
		if err != nil {
			return sw, err
		}
		ms, err := spec.Parse(b)
		if err != nil {
			return sw, err
		}
		sw.Base = &ms
	}
	sw.Axes = append(sw.Axes, axes...)
	if len(sw.Axes) == 0 {
		// The default sweep is the paper's own: Table 1's six branch schemes.
		sw.Axes = []spec.Axis{spec.Table1Axis()}
	}
	return sw, nil
}

// pickBenches resolves a comma-separated benchmark list against the tinyc
// suite; empty means the Table 1 integer suite (Explore's default).
func pickBenches(list string) ([]tinyc.Benchmark, error) {
	if list == "" {
		return nil, nil
	}
	var out []tinyc.Benchmark
	for _, name := range strings.Split(list, ",") {
		b, err := tinyc.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mipsx-explore:", err)
	os.Exit(1)
}
