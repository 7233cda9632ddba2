// Command mipsx-lint statically verifies that MIPS-X code is safe to run on
// a machine with no hardware interlocks: it builds a delay-slot-aware CFG
// over the assembled program and reports every load-use, delay-slot,
// special-register and coprocessor timing violation (see internal/lint and
// DESIGN.md §8 for the rules). It also carries the static cycle-cost
// analyzer: per-block base-cycle costs on the same graph, optionally rolled
// up with a measured profile (mipsx-run -profile-out) into whole-program
// predictions that match the simulator's attribution ledger exactly.
//
// Usage:
//
//	mipsx-lint prog.s                      # lint hand-written assembly
//	mipsx-lint -reorg prog.s               # reorganize first, then lint
//	mipsx-lint -tiny prog.t                # compile tinyc, reorganize, lint
//	mipsx-lint -json prog.s                # machine-readable findings
//	mipsx-lint -cost prog.s                # static per-block cycle costs
//	mipsx-lint -cost -profile p.json prog.s # costs + measured roll-up
//	mipsx-lint -cost-json prog.s           # cost model as JSON
//	mipsx-lint -suite                      # lint every benchmark × scheme
//
// Exit status is 1 when any error-severity finding exists, 2 on usage or
// input errors, 0 otherwise. Warnings and infos never fail the run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/asm"
	"repro/internal/jsondoc"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

func main() {
	tiny := flag.Bool("tiny", false, "input is tinyc source (compile + reorganize first)")
	doReorg := flag.Bool("reorg", false, "run the code reorganizer before linting")
	slots := flag.Int("slots", 2, "branch delay slots to verify for (1 or 2)")
	squash := flag.String("squash", "optional", "squash mode for -reorg/-tiny: none, always, optional")
	base := flag.Uint("base", 0, "load address (words)")
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	quiet := flag.Bool("quiet", false, "suppress findings, report only the summary line")
	suite := flag.Bool("suite", false, "lint every tinyc benchmark under every Table 1 scheme")
	cost := flag.Bool("cost", false, "print the static per-block cycle-cost model instead of findings")
	costJSON := flag.Bool("cost-json", false, "print the cost model as JSON")
	profPath := flag.String("profile", "", "pc profile (from mipsx-run -profile-out) to roll the cost model up with")
	flag.Parse()

	if *suite {
		os.Exit(runSuite(*jsonOut))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mipsx-lint [flags] prog.{s,t}  |  mipsx-lint -suite")
		os.Exit(2)
	}
	scheme, err := spec.ParseScheme(fmt.Sprintf("%d/%s", *slots, *squash))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mipsx-lint:", err)
		os.Exit(2)
	}
	if *base > math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "mipsx-lint: -base %d does not fit in 32 bits\n", *base)
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	var im *asm.Image
	if *tiny {
		// Note Build already lints internally and refuses bad output; going
		// through the pieces here lets mipsx-lint show the findings instead.
		c, err := tinyc.Compile(string(src))
		if err != nil {
			fail(err)
		}
		im, err = asm.Assemble(reorg.Reorganize(c.Stmts, scheme, nil), uint32(*base))
		if err != nil {
			fail(err)
		}
	} else {
		stmts, err := asm.Parse(string(src))
		if err != nil {
			fail(err)
		}
		if *doReorg {
			stmts = reorg.Reorganize(stmts, scheme, nil)
		}
		im, err = asm.Assemble(stmts, uint32(*base))
		if err != nil {
			fail(err)
		}
	}

	if *cost || *costJSON {
		runCost(im, lint.Config{Slots: *slots}, *costJSON, *profPath)
		return
	}

	rep := lint.CheckImage(im, lint.Config{Slots: *slots})
	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
	} else {
		if !*quiet {
			fmt.Print(rep.String())
		}
		errs, warns, infos := rep.Counts()
		fmt.Printf("%s: %d error(s), %d warning(s), %d info(s)\n", flag.Arg(0), errs, warns, infos)
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

// runCost prints the static cycle-cost model, rolled up with a measured
// profile when one is supplied.
func runCost(im *asm.Image, cfg lint.Config, asJSON bool, profPath string) {
	rep := lint.AnalyzeCost(im, cfg)
	var prof *obs.PCProfile
	if profPath != "" {
		raw, err := os.ReadFile(profPath)
		if err != nil {
			fail(err)
		}
		prof, err = obs.ParsePCProfile(raw)
		if err != nil {
			fail(err)
		}
		p := rep.Predict(prof)
		rep.Prediction = &p
	}
	if asJSON {
		b, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	fmt.Print(rep.Render(prof))
}

// SuiteSchema versions the -suite -json envelope.
const SuiteSchema = "mipsx-lint-suite/v1"

type suiteRow struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	Errors int    `json:"errors"`
	Warns  int    `json:"warnings"`
	Infos  int    `json:"infos"`
}

// runSuite verifies every tinyc benchmark under every Table 1 scheme — the
// "does the reorganizer keep its promise" regression sweep.
func runSuite(jsonOut bool) int {
	status := 0
	var rows []suiteRow
	for _, b := range tinyc.Benchmarks() {
		for _, s := range reorg.Table1Schemes() {
			im, err := tinyc.Build(b.Source, s, nil)
			if err != nil {
				// Build itself lints; a failure here IS an error finding.
				fmt.Fprintf(os.Stderr, "mipsx-lint: %s under %s: %v\n", b.Name, s, err)
				status = 1
				continue
			}
			rep := lint.CheckImage(im, lint.Config{Slots: s.Slots})
			errs, warns, infos := rep.Counts()
			rows = append(rows, suiteRow{b.Name, s.String(), errs, warns, infos})
			if errs > 0 {
				status = 1
				fmt.Print(rep.String())
			}
			if !jsonOut {
				fmt.Printf("%-14s %-24s %d error(s), %d warning(s), %d info(s)\n",
					b.Name, s, errs, warns, infos)
			}
		}
	}
	if jsonOut {
		b, err := jsondoc.Marshal(struct {
			Schema  string     `json:"schema"`
			Targets []suiteRow `json:"targets"`
		}{SuiteSchema, rows})
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
	}
	return status
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mipsx-lint:", err)
	os.Exit(2)
}
