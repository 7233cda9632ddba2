// Command mipsx-run executes a program on the full MIPS-X system (pipeline
// + on-chip Icache + external cache) and reports the run's statistics.
//
// Inputs are either MIPS-X assembly (.s — already scheduled, run as-is) or
// tinyc source (-tiny — compiled, reorganized and assembled first).
//
// Usage:
//
//	mipsx-run prog.s
//	mipsx-run -tiny prog.t
//	mipsx-run -tiny -profile prog.t       # two-pass profile feedback
//	mipsx-run -stats -check prog.s
//	mipsx-run -lint prog.s                # refuse to run hazardous code
//	mipsx-run -breakdown prog.s           # cycle-attribution table
//	mipsx-run -trace-out t.json prog.s    # stream a Chrome/Perfetto event trace
//	mipsx-run -profile-out p.json prog.s  # pc/block profile for mipsx-lint -cost
//	mipsx-run -spec machine.json prog.s   # run on a named design point
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/jsondoc"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

func main() {
	tiny := flag.Bool("tiny", false, "input is tinyc source (compile + reorganize)")
	profile := flag.Bool("profile", false, "with -tiny or -bench: rebuild with branch profile feedback")
	stats := flag.Bool("stats", false, "print run statistics")
	check := flag.Bool("check", false, "enable the software-interlock hazard checker")
	doLint := flag.Bool("lint", false, "statically verify the program before running; refuse on errors")
	maxCycles := flag.Uint64("max-cycles", 100_000_000, "cycle limit")
	pipe := flag.Int("pipe", 0, "print the first N cycles of pipeline occupancy")
	breakdown := flag.Bool("breakdown", false, "print the cycle-attribution table (conservation-checked)")
	breakdownOut := flag.String("breakdown-out", "", "write the attribution report as JSON (mipsx-trace viz renders it)")
	traceOut := flag.String("trace-out", "", "stream a Chrome trace-event/Perfetto JSON trace of the run to FILE as it executes")
	obsWindow := flag.Int("obs-window", 0, "with -obs-window-out: fold the attribution ledger into N-cycle windows (mipsx-obswin/v1 time-series)")
	obsWindowOut := flag.String("obs-window-out", "", "with -obs-window: stream the window time-series to FILE (mipsx-trace -follow tails it)")
	scenarioList := flag.String("scenario", "", "run a multiprogrammed scenario of comma-separated built-in benchmarks (e.g. bubblesort,sieve)")
	scenarioQuantum := flag.Int("scenario-quantum", 0, "with -scenario: scheduler quantum in cycles (0 = spec default)")
	scenarioPolicy := flag.String("scenario-policy", "", "with -scenario: Icache switch policy, flush or pid (empty = spec default)")
	profileOut := flag.String("profile-out", "", "write the per-PC writeback profile as JSON (mipsx-lint -cost -profile reads it)")
	benchName := flag.String("bench", "", "run the named built-in tinyc benchmark instead of a source file")
	specPath := flag.String("spec", "", "machine-spec JSON file naming the design point to run (default: the machine as built)")
	flag.Parse()

	if *obsWindow < 0 {
		fmt.Fprintln(os.Stderr, "mipsx-run: -obs-window must be >= 0")
		os.Exit(2)
	}
	if *scenarioQuantum < 0 {
		fmt.Fprintln(os.Stderr, "mipsx-run: -scenario-quantum must be >= 0")
		os.Exit(2)
	}
	if (*obsWindowOut != "") != (*obsWindow > 0) {
		// Windows only stream: a size without a file would compute them for
		// nothing, and a file without a size has nothing to write.
		fmt.Fprintln(os.Stderr, "mipsx-run: -obs-window N and -obs-window-out FILE go together")
		os.Exit(2)
	}

	if *scenarioList != "" {
		// Refuse what the scenario path would otherwise silently ignore.
		flag.Visit(func(f *flag.Flag) {
			if !scenarioFlags[f.Name] {
				fmt.Fprintf(os.Stderr, "mipsx-run: -%s is not supported with -scenario\n", f.Name)
				os.Exit(2)
			}
		})
		if flag.NArg() != 0 {
			fmt.Fprintf(os.Stderr, "mipsx-run: -scenario runs built-in benchmarks; program argument %q is not supported\n", flag.Arg(0))
			os.Exit(2)
		}
		runScenario(*scenarioList, *specPath, *scenarioQuantum, *scenarioPolicy,
			*traceOut, *obsWindow, *obsWindowOut, *breakdown, *breakdownOut)
		return
	}

	if *profile && !*tiny && *benchName == "" {
		// Only tinyc source can be rebuilt with the measured profile;
		// assembly is already scheduled.
		fmt.Fprintln(os.Stderr, "mipsx-run: -profile needs -tiny or -bench")
		os.Exit(2)
	}

	var src []byte
	var err error
	switch {
	case *benchName != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: mipsx-run -bench NAME [flags]")
			os.Exit(2)
		}
		*tiny = true
		b, err := tinyc.BenchmarkByName(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mipsx-run: -bench:", err)
			os.Exit(2)
		}
		src = []byte(b.Source)
	case flag.NArg() == 1:
		if src, err = os.ReadFile(flag.Arg(0)); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: mipsx-run [flags] prog.{s,t}")
		os.Exit(2)
	}

	// The machine is constructed only through a validated spec; -check is a
	// simulator knob outside the spec, applied after Build. The
	// spec is resolved before the toolchain runs: tinyc compilation and the
	// lint verifier must target the spec's branch scheme, not the default —
	// code scheduled for two delay slots is wrong on a one-slot machine.
	ms := spec.Default()
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			fail(err)
		}
		if ms, err = spec.Parse(b); err != nil {
			fail(err)
		}
	}
	scheme, err := ms.Scheme()
	if err != nil {
		fail(err)
	}
	cfg, err := ms.Build()
	if err != nil {
		fail(err)
	}

	var im *asm.Image
	if *tiny {
		im, err = tinyc.Build(string(src), scheme, nil)
		if err != nil {
			fail(err)
		}
	} else {
		im, err = asm.AssembleSource(string(src), 0)
		if err != nil {
			fail(err)
		}
	}

	if *doLint {
		// The dynamic checker (-check) catches hazards the program happens to
		// execute; the static verifier proves their absence up front.
		lcfg := lint.DefaultConfig()
		lcfg.Slots = scheme.Slots
		rep := lint.CheckImage(im, lcfg)
		fmt.Fprint(os.Stderr, rep.String())
		if rep.HasErrors() {
			fmt.Fprintln(os.Stderr, "mipsx-run: refusing to run: program has interlock hazards (see above)")
			os.Exit(1)
		}
	}
	cfg.Pipeline.CheckHazards = *check

	if *profile {
		// First pass: collect branch outcomes; second pass: rebuild.
		m := core.New(cfg, os.Stdout)
		m.Load(im)
		var rec trace.Recorder
		rec.Attach(m.CPU)
		if _, err := m.Run(*maxCycles); err != nil {
			fail(err)
		}
		prof := trace.Profile(im, rec.Branches)
		im, err = tinyc.Build(string(src), scheme, prof)
		if err != nil {
			fail(err)
		}
		fmt.Println("-- profiled rebuild --")
	}

	m := core.New(cfg, os.Stdout)
	// Observation is attached only when asked for: the unobserved machine
	// keeps the nil-sink fast path.
	observed := *breakdown || *breakdownOut != "" || *traceOut != "" || *obsWindow > 0
	var closeTrace, closeWindows func()
	if observed {
		s := obs.NewMachineSink()
		if *traceOut != "" {
			s.Tracer = &obs.Tracer{Instrs: true}
			closeTrace = openTrace(*traceOut, s.Tracer)
		}
		if *obsWindow > 0 {
			var win *obs.WindowedLedger
			win, closeWindows = openWindows(*obsWindowOut, *obsWindow)
			s.Ledger.AttachWindows(win)
		}
		m.Observe(s)
	}
	m.Load(im)
	var pcProf *obs.PCProfile
	if *profileOut != "" {
		pcProf = obs.NewPCProfile(uint32(im.Base), len(im.Words))
		m.CPU.Prof = pcProf
	}
	// The first -pipe cycles run one at a time so their occupancy prints.
	// They go through RunQuantum like the rest and count toward the total
	// and the -max-cycles budget.
	var cycles uint64
	for i := 0; i < *pipe && cycles < *maxCycles && !m.Console.Halted; i++ {
		fmt.Println(m.CPU.Snapshot())
		n, _, err := m.RunQuantum(1)
		cycles += n
		if err != nil {
			fail(err)
		}
	}
	n, err := m.Run(*maxCycles - min(cycles, *maxCycles))
	cycles += n
	if err != nil {
		fail(err)
	}
	if closeWindows != nil {
		closeWindows()
	}
	if observed {
		if err := m.VerifyAttribution(); err != nil {
			fail(err)
		}
	}
	if closeTrace != nil {
		closeTrace()
	}
	if *profileOut != "" {
		b, err := jsondoc.Marshal(pcProf.Doc())
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*profileOut, b, 0o644); err != nil {
			fail(err)
		}
	}
	if *breakdownOut != "" {
		b, err := jsondoc.Marshal(m.ObsReport())
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*breakdownOut, b, 0o644); err != nil {
			fail(err)
		}
	}
	if *breakdown {
		fmt.Print(m.ObsReport().DecompositionTable())
	}
	if *check {
		for _, v := range m.CPU.Violations {
			fmt.Fprintf(os.Stderr, "hazard: %v\n", v)
		}
	}
	if *stats {
		s := m.Stats()
		p := s.Pipeline
		fmt.Printf("cycles            %d\n", cycles)
		fmt.Printf("instructions      %d (nops %d, squashed %d)\n", p.Issued(), p.Nops, p.Squashed)
		fmt.Printf("CPI               %.3f\n", s.CPI())
		fmt.Printf("no-op fraction    %.1f%%\n", 100*p.NopFraction())
		fmt.Printf("branches          %d (taken %d, cycles/branch %.2f)\n",
			p.Branches, p.TakenBranches, p.CyclesPerBranch())
		fmt.Printf("loads/stores      %d/%d\n", p.Loads, p.Stores)
		fmt.Printf("icache            %.1f%% miss, %d stall cycles\n",
			100*s.Icache.MissRatio(), s.Icache.StallCycles)
		fmt.Printf("ecache            %.1f%% miss, %d stall cycles\n",
			100*s.Ecache.MissRatio(), s.Ecache.StallCycles)
		fmt.Printf("ifetch cost       %.3f cycles\n", s.IfetchCost())
		fmt.Printf("sustained MIPS    %.2f @ %.0f MHz\n", s.SustainedMIPS(), core.ClockMHz)
	}
}

// scenarioFlags are the flags a -scenario run honors.
var scenarioFlags = map[string]bool{
	"scenario": true, "scenario-quantum": true, "scenario-policy": true, "spec": true,
	"trace-out": true, "obs-window": true, "obs-window-out": true,
	"breakdown": true, "breakdown-out": true,
}

// openTrace creates path and streams tr's events into it; the returned
// function closes the trace and reports what was written.
func openTrace(path string, tr *obs.Tracer) func() {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := tr.StartStream(f, 0); err != nil {
		fail(err)
	}
	return func() {
		if err := tr.CloseStream(); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mipsx-run: streamed %d trace events to %s\n", tr.Len(), path)
	}
}

// openWindows builds the -obs-window ledger, streaming each window to path
// as it closes. The returned function flushes the last window, which also
// checks that the windows add back to the ledger, and closes the file.
func openWindows(path string, size int) (*obs.WindowedLedger, func()) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	sw, err := obs.NewWindowStreamWriter(f, uint64(size))
	if err != nil {
		fail(err)
	}
	win := obs.NewWindowedLedger(obs.MachineCauseNames, uint64(size))
	win.OnWindow(sw.Write)
	return win, func() {
		if err := win.Flush(); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mipsx-run: streamed %d ledger windows (%d cycles each) to %s\n", sw.Count(), size, path)
	}
}

// runScenario executes comma-separated built-in benchmarks as one
// multiprogrammed scenario (internal/scenario) with the streaming
// observability the flags ask for: -trace-out streams trace events on the
// scenario-global clock, -obs-window/-obs-window-out stream the per-context
// windowed ledger. This is the production path for watching Icache pollution
// and flush-refill cost evolve around context switches on multi-million
// cycle runs under O(window) memory.
func runScenario(list, specPath string, quantum int, policy, traceOut string, window int, windowOut string, breakdown bool, breakdownOut string) {
	var programs []scenario.Program
	for _, name := range strings.Split(list, ",") {
		b, err := tinyc.BenchmarkByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mipsx-run: -scenario:", err)
			os.Exit(2)
		}
		programs = append(programs, scenario.Program{Name: b.Name, Source: b.Source, Expect: b.Expect()})
	}

	ms := spec.Default()
	if specPath != "" {
		b, err := os.ReadFile(specPath)
		if err != nil {
			fail(err)
		}
		if ms, err = spec.Parse(b); err != nil {
			fail(err)
		}
	}
	scn := spec.DefaultScenario()
	if ms.Scenario != nil {
		scn = *ms.Scenario
	}
	if quantum > 0 {
		scn.Quantum = quantum
	}
	if policy != "" {
		scn.Policy = policy
	}
	ms.Scenario = &scn
	if err := ms.Validate(); err != nil {
		fail(err)
	}
	scheme, err := ms.Scheme()
	if err != nil {
		fail(err)
	}

	var opts scenario.RunOpts
	var closeTrace func()
	if traceOut != "" {
		opts.Tracer = &obs.Tracer{}
		closeTrace = openTrace(traceOut, opts.Tracer)
	}
	var closeWindows func()
	if window > 0 {
		opts.Windows, closeWindows = openWindows(windowOut, window)
	}

	res, err := scenario.RunWith(context.Background(), programs, scheme, ms, opts)
	if err != nil {
		fail(err)
	}
	if closeTrace != nil {
		closeTrace()
	}
	if closeWindows != nil {
		closeWindows()
	}

	fmt.Printf("scenario %s: quantum %d, policy %s, switch cost %d\n",
		list, scn.Quantum, scn.Policy, scn.SwitchCost)
	for _, p := range res.Programs {
		fmt.Printf("  %-14s %12d cycles %10d instructions\n", p.Name, p.Cycles, p.Instructions)
	}
	fmt.Printf("  %-14s %12d cycles (%d switches, %d switch cycles, %d flush stalls)\n",
		"total", res.Cycles, res.Switches, res.SwitchCycles, res.FlushStalls)
	fmt.Printf("  CPI %.4f over %d instructions\n", res.CPI(), res.Instructions)
	if breakdownOut != "" {
		b, err := jsondoc.Marshal(res.Obs)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(breakdownOut, b, 0o644); err != nil {
			fail(err)
		}
	}
	if breakdown {
		fmt.Print(res.Obs.DecompositionTable())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mipsx-run:", err)
	os.Exit(1)
}
