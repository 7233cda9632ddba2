// Command mipsx-trace generates synthetic large-program instruction traces
// (the stand-ins for the Stanford benchmark and ATUM traces) and runs them
// against configurable Icache and Ecache organizations — the trace-driven
// methodology behind the paper's cache numbers.
//
// Usage:
//
//	mipsx-trace -profile pascal -refs 300000
//	mipsx-trace -profile lisp -fetchback 1 -penalty 3
//	mipsx-trace -profile fp -dump 50          # show the first 50 addresses
//
// The viz subcommand renders observability artifacts as CPI-decomposition
// tables — a single machine's attribution report (mipsx-run -breakdown-out),
// a whole bench document (mipsx-bench -json), a scenario sweep, or a
// windowed-ledger time-series (mipsx-run -obs-window-out):
//
//	mipsx-trace viz breakdown.json
//	mipsx-trace viz -cells BENCH_pr.json
//	mipsx-trace viz SCENARIO_baseline.json    # per-cell pollution breakdown
//	mipsx-trace viz windows.jsonl             # mipsx-obswin/v1 time-series
//
// -follow tails a live mipsx-obswin/v1 stream (a file still being written,
// or a pipe) and re-renders a rolling CPI-decomposition table — plus the
// per-context breakdown when the producer is a scenario run — as each
// window closes:
//
//	mipsx-run -scenario bubblesort,sieve -obs-window 16384 -obs-window-out w.jsonl &
//	mipsx-trace -follow w.jsonl
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/ecache"
	"repro/internal/experiments"
	"repro/internal/icache"
	"repro/internal/jsondoc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Input caps. The trace is held in memory (4 bytes a reference) and the
// synthetic program's layout grows with its code size, so both are bounded
// well above what the experiments use (300,000 references, 160 K-word
// code): at both caps a run takes about 60 MB.
const (
	maxRefs       = 10_000_000
	maxCodeKWords = 4096
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "viz" {
		viz(os.Args[2:])
		return
	}
	followPath := flag.String("follow", "", "tail a mipsx-obswin/v1 window stream and re-render the rolling CPI decomposition")
	followOnce := flag.Bool("once", false, "with -follow: render what the stream holds now and exit instead of tailing")
	followInterval := flag.Duration("interval", 250*time.Millisecond, "with -follow: poll interval while waiting for new windows (> 0)")
	profile := flag.String("profile", "pascal", "workload profile: pascal, lisp, fp")
	codeKW := flag.Int("code-kwords", 0, "static code footprint in K words (0 = profile default, at most 4096)")
	refs := flag.Int("refs", 300_000, "trace length in instruction references (at most 10,000,000)")
	fetchBack := flag.Int("fetchback", 2, "words fetched per Icache miss")
	penalty := flag.Int("penalty", 2, "Icache miss service cycles")
	dump := flag.Int("dump", 0, "print the first N trace addresses and exit")
	flag.Parse()

	if *followPath != "" {
		if *followInterval <= 0 {
			fmt.Fprintln(os.Stderr, "mipsx-trace: -follow needs -interval > 0")
			os.Exit(2)
		}
		if err := follow(*followPath, *followInterval, *followOnce, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if *refs < 0 || *refs > maxRefs {
		fmt.Fprintf(os.Stderr, "mipsx-trace: -refs must be in [0, %d]\n", maxRefs)
		os.Exit(2)
	}
	if *codeKW < 0 || *codeKW > maxCodeKWords {
		fmt.Fprintf(os.Stderr, "mipsx-trace: -code-kwords must be in [0, %d]\n", maxCodeKWords)
		os.Exit(2)
	}
	// The caches under study are the default machine's, with the Icache's
	// fetch-back and miss penalty from the flags; the spec's validation
	// rejects a pair the cache constructors would panic on.
	ms := spec.Default()
	ms.ICache = ms.ICache.WithFetch(*fetchBack, *penalty)
	if err := ms.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mipsx-trace:", err)
		os.Exit(2)
	}

	var cfg trace.SynthConfig
	switch *profile {
	case "pascal":
		cfg = trace.PascalSynth(*codeKW * 1024)
	case "lisp":
		cfg = trace.LispSynth(*codeKW * 1024)
	case "fp":
		cfg = trace.FPSynth(*codeKW * 1024)
	default:
		fmt.Fprintf(os.Stderr, "mipsx-trace: unknown profile %q\n", *profile)
		os.Exit(2)
	}
	tr := trace.NewSynthesizer(cfg).Generate(*refs)

	if *dump > 0 {
		n := *dump
		if n > len(tr) {
			n = len(tr)
		}
		for _, a := range tr[:n] {
			fmt.Printf("%06x\n", a)
		}
		return
	}

	icfg := ms.ICache.BuildICache()
	m := mem.New()
	bus := mem.DefaultBus()
	e := ecache.New(ms.ECache.BuildECache(), m, bus)
	ic := icache.New(icfg, e)
	for _, a := range tr {
		ic.Fetch(a)
	}

	fmt.Printf("profile          %s (%d words static code)\n", *profile, cfg.CodeWords)
	fmt.Printf("references       %d\n", len(tr))
	fmt.Printf("icache           %d sets × %d ways × %d words, fetch-back %d, %d-cycle miss\n",
		icfg.Sets, icfg.Ways, icfg.BlockWords, icfg.FetchBack, icfg.MissPenalty)
	fmt.Printf("icache miss      %.2f%%\n", 100*ic.Stats.MissRatio())
	fmt.Printf("ifetch cost      %.3f cycles (icache stalls only)\n", ic.Stats.FetchCost())
	fmt.Printf("ecache miss      %.2f%% (%d accesses)\n",
		100*e.Stats.MissRatio(), e.Stats.Accesses())
	fmt.Printf("bus traffic      %d words\n", bus.WordsCarried)
}

// viz renders an observability artifact as a CPI-decomposition table. The
// file's schema field selects the renderer: an obs attribution report
// prints directly; a bench document prints the engine-wide attribution
// (and, with -cells, each cell's own breakdown).
func viz(args []string) {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	cells := fs.Bool("cells", false, "with a bench document: also print each cell's attribution")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mipsx-trace viz [-cells] report.json")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	// Every failure below names the file.
	failIn := func(err error) { fail(fmt.Errorf("%s: %w", fs.Arg(0), err)) }
	// The schema comes from the file's first JSON value: the whole document,
	// or the header line of a line-framed window stream.
	schema, err := jsondoc.Schema(b)
	if err != nil {
		failIn(fmt.Errorf("not a recognized observability document: %w", err))
	}
	switch schema {
	case obs.WindowSchema:
		doc, err := obs.ParseWindowStream(bytes.NewReader(b))
		if err != nil {
			failIn(err)
		}
		if err := renderWindowDoc(doc, os.Stdout); err != nil {
			failIn(err)
		}
	case obs.ReportSchema:
		rep, err := obs.ParseReport(b)
		if err != nil {
			failIn(err)
		}
		fmt.Print(rep.DecompositionTable())
	case experiments.BenchSchema:
		doc, err := experiments.ParseBenchDoc(b)
		if err != nil {
			failIn(err)
		}
		fmt.Printf("bench document: %d cells, %d cycles simulated\n\n", doc.Cells, doc.TotalCyclesSimulated)
		fmt.Print(attrTable(doc.Attribution, doc.TotalCyclesSimulated).DecompositionTable())
		if doc.ObsOverhead != nil {
			fmt.Printf("\n%s\n", doc.ObsOverhead)
		}
		if *cells {
			for _, t := range doc.CellTimings {
				if len(t.Attribution) == 0 {
					continue
				}
				var total uint64
				for _, v := range t.Attribution {
					total += v
				}
				fmt.Printf("\ncell %s (%d cycles)\n", t.ID, total)
				fmt.Print(attrTable(t.Attribution, total).DecompositionTable())
			}
		}
	case experiments.ScenarioSchema:
		doc, err := experiments.ParseScenarioDoc(b)
		if err != nil {
			failIn(err)
		}
		fmt.Printf("scenario document: %d cells (%s, switch cost %d)\n", len(doc.Cells), doc.Scheme, doc.SwitchCost)
		for i := range doc.Cells {
			c := &doc.Cells[i]
			r := &c.Result
			fmt.Printf("\n%s quantum=%d policy=%s: %d cycles (CPI %.4f), %d switches, %d icache misses\n",
				c.Workload, c.Quantum, c.Policy, r.Cycles, r.CPI(), r.Switches, r.IcacheMisses)
			if r.Obs != nil {
				// The decomposition is the pollution breakdown: under flush
				// the context-switch/flush-refill rows carry the scheduler
				// overhead and icache-miss carries the cold-cache refills;
				// under pid all three shrink to the workload's own misses.
				fmt.Print(r.Obs.DecompositionTable())
			}
		}
	default:
		failIn(fmt.Errorf("unrecognized schema %q (want %q, %q, %q or %q)",
			schema, obs.ReportSchema, experiments.BenchSchema,
			experiments.ScenarioSchema, obs.WindowSchema))
	}
}

// renderWindowDoc prints a windowed time-series: the per-window conservation
// verdict, the cause evolution over windows, and the cumulative
// decomposition. A conservation failure is an error — the caller exits
// nonzero rather than printing a partial table as if it were sound.
func renderWindowDoc(doc *obs.WindowDoc, w io.Writer) error {
	if err := doc.Check(); err != nil {
		return err
	}
	fmt.Fprintf(w, "window stream: %d windows × %d cycles (%d cycles total)\n",
		len(doc.Windows), doc.Window, doc.Total())
	for i := range doc.Windows {
		win := &doc.Windows[i]
		fmt.Fprintf(w, "\n-- window %d (start %d, %d cycles) --\n", win.Index, win.Start, win.Cycles)
		fmt.Fprint(w, windowReport(win).DecompositionTable())
		writeContexts(w, win)
	}
	fmt.Fprintf(w, "\n-- cumulative --\n")
	fmt.Fprint(w, attrTable(doc.CauseTotals(), doc.Total()).DecompositionTable())
	return nil
}

// windowReport lifts one window into an obs report for the standard
// decomposition renderer.
func windowReport(win *obs.Window) *obs.Report {
	rep := &obs.Report{Schema: obs.ReportSchema, Cycles: win.Cycles}
	rep.Causes = append(rep.Causes, win.Causes...)
	return rep
}

// writeContexts prints a window's per-context breakdown (scenario streams).
func writeContexts(w io.Writer, win *obs.Window) {
	for _, cs := range win.Contexts {
		fmt.Fprintf(w, "  context %-14s %10d cycles:", cs.Context, cs.Cycles)
		for _, c := range cs.Causes {
			fmt.Fprintf(w, " %s=%d", c.Cause, c.Cycles)
		}
		fmt.Fprintln(w)
	}
}

// followState replays a window stream line by line through the obs
// decoder (the one viz uses), maintaining the rolling cumulative
// attribution the live renderer shows. Separated from the I/O loop so the
// parsing/rendering logic is testable on byte slices.
type followState struct {
	dec     obs.WindowDecoder
	windows uint64
	cum     map[string]uint64
	cycles  uint64
	last    *obs.Window
}

// feedLine consumes one complete line (header first, then windows),
// returning whether a new window was added.
func (st *followState) feedLine(line []byte) (bool, error) {
	win, err := st.dec.Line(line)
	if err != nil || win == nil {
		return false, err
	}
	if st.cum == nil {
		st.cum = make(map[string]uint64)
	}
	for _, c := range win.Causes {
		st.cum[c.Cause] += c.Cycles
	}
	st.cycles += win.Cycles
	st.windows++
	st.last = win
	return true, nil
}

// render prints the rolling view: the newest window's decomposition with its
// per-context breakdown, then the cumulative table across all windows seen.
func (st *followState) render(w io.Writer) {
	if st.last == nil {
		fmt.Fprintf(w, "waiting for windows (%d-cycle windows)\n", st.dec.Size)
		return
	}
	fmt.Fprintf(w, "\n== window %d (start %d, %d cycles; %d windows, %d cycles so far) ==\n",
		st.last.Index, st.last.Start, st.last.Cycles, st.windows, st.cycles)
	fmt.Fprint(w, windowReport(st.last).DecompositionTable())
	writeContexts(w, st.last)
	fmt.Fprintf(w, "-- cumulative --\n")
	fmt.Fprint(w, attrTable(st.cum, st.cycles).DecompositionTable())
}

// follow tails a window stream file or pipe: complete lines are consumed as
// they appear (a trailing partial line waits for its newline), each closed
// window re-renders the rolling view. With once, it renders the stream's
// current state a single time and returns.
func follow(path string, interval time.Duration, once bool, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st := &followState{}
	buf := make([]byte, 64<<10)
	var pending []byte
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			pending = append(pending, buf[:n]...)
			for {
				i := bytes.IndexByte(pending, '\n')
				if i < 0 {
					break
				}
				line := append([]byte(nil), pending[:i]...)
				pending = pending[i+1:]
				fresh, err := st.feedLine(line)
				if err != nil {
					return err
				}
				if fresh && !once {
					st.render(out)
				}
			}
		}
		if rerr == io.EOF {
			if once {
				if st.dec.Size == 0 {
					return fmt.Errorf("%s: no window-stream header yet", path)
				}
				st.render(out)
				return nil
			}
			time.Sleep(interval)
			continue
		}
		if rerr != nil {
			return rerr
		}
	}
}

// attrTable lifts a cause → cycles map into an obs report so the standard
// decomposition renderer (and its conservation line) applies.
func attrTable(attr map[string]uint64, cycles uint64) *obs.Report {
	rep := &obs.Report{Schema: obs.ReportSchema, Cycles: cycles}
	for cause, n := range attr {
		rep.Causes = append(rep.Causes, obs.CauseCycles{Cause: cause, Cycles: n})
	}
	sort.Slice(rep.Causes, func(i, j int) bool { return rep.Causes[i].Cause < rep.Causes[j].Cause })
	return rep
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mipsx-trace:", err)
	os.Exit(1)
}
