package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
	"repro/internal/vaxlike"
)

// Table1BranchSchemes reproduces paper Table 1: average cycles per branch
// for the six branch schemes, plus the "actual reorganizer with profiling"
// rows the text reports (1.5 early, 1.27 with better optimization).
func Table1BranchSchemes() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Average cycles per branch instruction (paper Table 1)",
		Paper:  "2-slot: no squash 2.0, always 1.5, optional 1.3; 1-slot: 1.4, 1.3, 1.1; measured 1.27–1.5",
		Header: []string{"branch scheme", "cycles/branch", "branches", "wasted slots"},
	}
	benches := table1Benchmarks()
	schemes := reorg.Table1Schemes()
	// One memoizable cell per (scheme × benchmark), plus the shipped
	// configuration with profile feedback ("our most recent results show
	// that ... the average branch takes 1.27 cycles"), all in one Run. The
	// profiled row goes first: its cells capture the shipped runs, which the
	// shipped scheme's row then reads instead of simulating (at -parallel 1
	// every capture is done before its reader starts).
	profiled := newSuite("E1/profiled", benches, true, spec.Default())
	suites := make([]suite, len(schemes))
	cells := slices.Clone(profiled.cells)
	for i, scheme := range schemes {
		suites[i] = newSuite("E1/"+scheme.String(), benches, false, spec.Table1(scheme))
		cells = append(cells, suites[i].cells...)
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		agg := suites[i].stats()
		t.AddRow(scheme.String(), agg.cyclesPerBranch(), agg.Branches, agg.Wasted)
	}
	agg := profiled.stats()
	t.AddRow("2-slot squash optional + profile", agg.cyclesPerBranch(), agg.Branches, agg.Wasted)
	return t, nil
}

// IcacheDesign reproduces the instruction-cache design study (§The
// Instruction Cache): miss ratios and average instruction-fetch cost across
// the organizations the team weighed, on the large-program traces.
func IcacheDesign() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "On-chip instruction cache organizations (trace-driven)",
		Paper:  "single fetch >20% miss; double fetch ~12% miss → 1.24 cycles/fetch; 2-cycle vs 3-cycle miss is the lever",
		Header: []string{"organization", "miss ratio", "fetch cycles", "words/miss"},
	}
	// The two large-program traces, each generated on first use by the
	// organization cells that share its source.
	specs := []traceSpec{
		synthTrace(trace.PascalSynth(0), 300_000),
		synthTrace(trace.LispSynth(0), 300_000),
	}
	srcs := make([]func() ([]isa.Word, error), len(specs))
	for i := range specs {
		srcs[i] = specs[i].source()
	}
	type org struct {
		name string
		ic   icache.Config
	}
	// The organization grid derives from one preset (the shipped Icache
	// sub-spec), varied only along the (fetch-back, miss-penalty) axis.
	base := spec.Default().ICache
	orgs := []org{
		{"single fetch, 2-cycle miss", base.WithFetch(1, 2)},
		{"double fetch, 2-cycle miss (chosen)", base.WithFetch(2, 2)},
		{"triple fetch, 2-cycle miss", base.WithFetch(3, 2)},
		{"double fetch, 3-cycle miss (tags off datapath)", base.WithFetch(2, 3)},
		{"single fetch, 3-cycle miss", base.WithFetch(1, 3)},
	}
	// One memoized cell per (organization, trace), keyed on the trace's
	// identity plus the Icache sub-spec digest; traces are shared read-only.
	res := make([]fetchCost, len(orgs)*len(specs))
	cells := make([]Cell, len(res))
	for k := range res {
		o, ti := k/len(specs), k%len(specs)
		cells[k] = icacheCostCell(fmt.Sprintf("E2/org[%d]", k), specs[ti], orgs[o].ic, srcs[ti], &res[k])
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	for i, o := range orgs {
		var miss, cycles float64
		for j := range specs {
			miss += res[i*len(specs)+j].Miss
			cycles += res[i*len(specs)+j].Cycles
		}
		t.AddRow(o.name, miss/float64(len(specs)), cycles/float64(len(specs)), o.ic.FetchBack)
	}
	t.Notes = append(t.Notes,
		"fetch cycles = 1 + miss ratio × miss service (Icache stall only; Ecache adds its own)",
		"triple fetch shows diminishing returns: the paper notes the cache bandwidth is fully used at two words")
	return t, nil
}

// icacheCost runs a trace against an Icache over an ideal backing store
// so only the on-chip organization is measured.
func icacheCost(cfg icache.Config, tr []isa.Word) (missRatio, fetchCycles float64) {
	ic := idealBackedIcache(cfg)
	for _, a := range tr {
		ic.Fetch(a)
	}
	return ic.Stats.MissRatio(), ic.Stats.FetchCost()
}

// idealBackedIcache builds an Icache whose backing Ecache, on a bus with no
// latency and no per-word cost, answers every access in 0 cycles.
func idealBackedIcache(cfg icache.Config) *icache.Cache {
	e := ecache.New(spec.IdealBackingECache(), mem.New(), &mem.Bus{Latency: 0, PerWord: 0})
	return icache.New(cfg, e)
}

// BranchConditionStats reproduces the condition-code analysis (§Branches):
// on a condition-code machine ~80% of branches need an explicit compare; on
// MIPS-X, 70–80% of branches are quick-compare eligible (equality or sign).
func BranchConditionStats() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Branch condition statistics",
		Paper:  "~80% of branches need an explicit compare; 70–80% quick-compare eligible",
		Header: []string{"metric", "value", "machine"},
	}
	benches := table1Benchmarks()
	// CISC side: one memoizable cell per benchmark counts whether condition
	// codes came from an explicit CMP/TST or rode on a prior arithmetic op.
	// MIPS-X side: one memoizable cell per benchmark — the same cells E1's
	// shipped-scheme row and E9 run, so a shared cache services all three.
	vr := make([]VAXResult, len(benches))
	mx := newSuite("E3/mipsx", benches, false, spec.Default())
	cells := make([]Cell, 0, 2*len(benches))
	for i, b := range benches {
		cells = append(cells, vaxCell("E3/vax/"+b.Name, b.Source, &vr[i]))
	}
	cells = append(cells, mx.cells...)
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	agg := mx.stats()
	var cmp, alu uint64
	for _, r := range vr {
		cmp += r.Stats.CCFromCmp
		alu += r.Stats.CCFromALU
	}
	explicit := float64(cmp) / float64(cmp+alu)
	t.AddRow("branches needing explicit compare", fmt.Sprintf("%.0f%%", 100*explicit), "condition-code CISC")
	// Quick-compare eligibility: equality compares or sign tests against zero
	// resolve with a fast comparator; magnitude compares need the full ALU.
	qc := float64(agg.CmpEq+agg.CmpSign) / float64(agg.Branches)
	t.AddRow("quick-compare eligible branches", fmt.Sprintf("%.0f%%", 100*qc), "MIPS-X")
	t.AddRow("branches comparing against r0", fmt.Sprintf("%.0f%%", 100*float64(agg.CmpZero)/float64(agg.Branches)), "MIPS-X")
	return t, nil
}

// BranchCacheVsStatic reproduces the prediction study (§Branches): the
// branch cache needs far more than 16 entries and never does much better
// than static prediction.
func BranchCacheVsStatic() (*Table, error) {
	return branchPrediction(e4Streams())
}

// e4Streams returns E4's two predictor inputs: the Table 1 suite's branches
// under the shipped scheme, and a synthetic large-program stream (hundreds
// of static branch sites, where the 16-entry cache visibly starves — the
// paper's "much greater than 16 entries" finding).
func e4Streams() (suite, big branchStream) {
	return suiteBranches(table1Benchmarks(), spec.Default()),
		syntheticBranches(120_000, 400, 11)
}

// branchPrediction builds E4's table from one memoized cell per stream,
// each evaluating that stream's predictor rows.
func branchPrediction(suite, big branchStream) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Branch cache vs static prediction",
		Paper:  "branch cache must be ≫16 entries for a high hit rate; never much better than static",
		Header: []string{"predictor", "accuracy", "hit rate"},
	}
	suiteRows := []predRow{
		{"static (backward taken)", "static", 0},
		{"static + profile", "profile", 0},
	}
	for _, n := range []int{8, 16, 64, 256, 1024} {
		suiteRows = append(suiteRows, predRow{fmt.Sprintf("branch cache, %d entries", n), "cache", n})
	}
	bigRows := []predRow{{"large program: static + profile", "profile", 0}}
	for _, n := range []int{16, 64, 512} {
		bigRows = append(bigRows, predRow{fmt.Sprintf("large program: branch cache, %d entries", n), "cache", n})
	}
	var suiteRes, bigRes []predEval
	cells := []Cell{
		bpredCell("E4/suite", suite, suiteRows, &suiteRes),
		bpredCell("E4/synthetic", big, bigRows, &bigRes),
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	for _, g := range []struct {
		rows []predRow
		res  []predEval
	}{{suiteRows, suiteRes}, {bigRows, bigRes}} {
		if len(g.res) != len(g.rows) {
			return nil, fmt.Errorf("E4: %d predictor results for %d rows", len(g.res), len(g.rows))
		}
		for i, r := range g.rows {
			hit := "-"
			if r.kind == "cache" {
				hit = fmt.Sprintf("%.2f", g.res[i].Hit)
			}
			t.AddRow(r.name, g.res[i].Acc, hit)
		}
	}
	return t, nil
}

// syntheticBranchStream models a large program's dynamic branches: many
// static sites with loop-like backward branches and biased forward ones.
func syntheticBranchStream(n, sites int, seed int64) []trace.BranchEvent {
	rng := rand.New(rand.NewSource(seed))
	type site struct {
		pc       isa.Word
		backward bool
		pTaken   float64
	}
	ss := make([]site, sites)
	for i := range ss {
		s := site{pc: isa.Word(i*23 + 7)}
		if rng.Float64() < 0.45 {
			s.backward = true
			s.pTaken = 0.80 + rng.Float64()*0.18
		} else {
			s.pTaken = rng.Float64() * 0.55
		}
		ss[i] = s
	}
	out := make([]trace.BranchEvent, n)
	for i := range out {
		var s site
		if rng.Float64() < 0.6 {
			s = ss[rng.Intn(1+sites/6)]
		} else {
			s = ss[rng.Intn(sites)]
		}
		out[i] = trace.BranchEvent{PC: s.pc, Backward: s.backward, Taken: rng.Float64() < s.pTaken}
	}
	return out
}

// CoprocessorSchemes reproduces the coprocessor-interface study (§The
// Coprocessor Interface): the rejected non-cached scheme pays an Icache
// miss per coprocessor instruction on FP-intensive code; the chosen
// address-pin scheme caches them; ldf/stf save an instruction per FPU
// memory transfer compared to going through CPU registers; the dedicated
// bus costs ~20 pins for no cycle advantage.
func CoprocessorSchemes() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Coprocessor interface alternatives on FP-intensive code",
		Paper:  "non-cached coprocessor ops caused 'significant performance loss' on FP code; final scheme: 1 extra pin",
		Header: []string{"interface", "cycles", "vs chosen", "extra pins"},
	}
	fp := tinyc.SuiteByClass("fp")[0]
	nc := spec.Default()
	nc.ICache.NoCacheCoproc = true
	var chosen, noncached, direct, indirect RunResult
	cells := []Cell{
		benchCell("E5/chosen", fp, false, spec.Default(), &chosen),
		benchCell("E5/non-cached", fp, false, nc, &noncached),
		asmCell("E5/ldf-stf", fpCopyDirect, spec.Default(), &direct),
		asmCell("E5/via-cpu", fpCopyViaCPU, spec.Default(), &indirect),
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	chosenCycles := chosen.Stats.Pipeline.Cycles
	ch := float64(chosenCycles)
	t.AddRow("address pins, cached (chosen)", chosenCycles, 1.0, 1)
	t.AddRow("non-cached coprocessor instructions", noncached.Stats.Pipeline.Cycles,
		float64(noncached.Stats.Pipeline.Cycles)/ch, 1)

	// Dedicated bus: same cycle behaviour as the chosen scheme for command
	// traffic, but register↔coprocessor data must go through memory (one
	// store + one load per transfer), and ~20 pins are consumed.
	transfers := chosen.CoprocOps[1] // FPU operations include ldc/stc data moves
	dedicated := chosenCycles + 2*transfers
	t.AddRow("dedicated coprocessor bus (memory-mediated data)", dedicated, float64(dedicated)/ch, 20)

	// ldf/stf direct path vs through-CPU-registers, on a memory-heavy FP
	// kernel written both ways.
	directCycles := direct.Stats.Pipeline.Cycles
	t.AddRow("FPU vector scale via ldf/stf (special coprocessor)", directCycles,
		float64(directCycles)/float64(directCycles), 1)
	t.AddRow("FPU vector scale via CPU registers (other coprocessors)", indirect.Stats.Pipeline.Cycles,
		float64(indirect.Stats.Pipeline.Cycles)/float64(directCycles), 1)
	return t, nil
}

// SustainedThroughput reproduces the conclusions' performance accounting:
// no-op fractions by workload class (15.6% Pascal, 18.3% Lisp), and the
// composition to ~1.7 cycles per instruction / >11 sustained MIPS once
// Icache and Ecache overheads on large programs are folded in.
func SustainedThroughput() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "No-op fractions and sustained throughput",
		Paper:  "no-ops: 15.6% Pascal, 18.3% Lisp; ~1.7 cycles/instruction; >11 sustained MIPS (peak 20)",
		Header: []string{"metric", "pascal", "lisp"},
	}
	ms := spec.Default()
	// One memoizable cell per benchmark of the two compiled suites, plus
	// four trace cells: the two large instruction traces and the two
	// multiprogrammed data traces (the per-reference Ecache stall is
	// independent of the suites; it is scaled by each suite's data-reference
	// density after the fan-in). The trace cells are memoized on (trace
	// identity × cache parameters); their Icache closures are the same as
	// E2's chosen-organization cells, so even a cold suite pass shares those
	// simulations. Each trace is generated only if its cell misses.
	tsPas := synthTrace(trace.PascalSynth(0), 300_000)
	tsLis := synthTrace(trace.LispSynth(0), 300_000)
	mpPas, mpLis := multiprogSpec(1), multiprogSpec(2)
	pasSuite := newSuite("E6/suite/pascal", tinyc.SuiteByClass("pascal"), true, ms)
	lisSuite := newSuite("E6/suite/lisp", tinyc.SuiteByClass("lisp"), true, ms)
	var icost [2]fetchCost
	var esweep [2]ecacheSweep
	cells := slices.Concat(pasSuite.cells, lisSuite.cells, []Cell{
		icacheCostCell("E6/icache/pascal", tsPas, ms.ICache, tsPas.source(), &icost[0]),
		icacheCostCell("E6/icache/lisp", tsLis, ms.ICache, tsLis.source(), &icost[1]),
		ecacheSweepCell("E6/ecache/pascal", mpPas, ms.ECache, false, mpPas.source(), &esweep[0]),
		ecacheSweepCell("E6/ecache/lisp", mpLis, ms.ECache, false, mpLis.source(), &esweep[1]),
	})
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	pas, lis := pasSuite.stats(), lisSuite.stats()
	t.AddRow("no-op fraction", fmt.Sprintf("%.1f%%", 100*pas.nopFraction()), fmt.Sprintf("%.1f%%", 100*lis.nopFraction()))
	t.AddRow("pipeline CPI (suite, caches warm)", pas.cpi(), lis.cpi())
	iPas, iLis := icost[0].Cycles-1, icost[1].Cycles-1
	t.AddRow("icache stalls/instr (large traces)", iPas, iLis)
	dPas := pas.refsPerInstr() * esweep[0].StallPerRef
	dLis := lis.refsPerInstr() * esweep[1].StallPerRef
	t.AddRow("ecache stalls/instr (large data)", dPas, dLis)

	cpiPas := pipelineOnlyCPI(pas) + iPas + dPas
	cpiLis := pipelineOnlyCPI(lis) + iLis + dLis
	t.AddRow("total cycles/instruction", cpiPas, cpiLis)
	t.AddRow("sustained MIPS @ 20 MHz", 20/cpiPas, 20/cpiLis)
	return t, nil
}

// pipelineOnlyCPI removes the suite's (small-program) cache stalls from its
// CPI, leaving the pure pipeline component to compose with the
// large-program overheads.
func pipelineOnlyCPI(s suiteStats) float64 {
	return float64(s.Cycles-s.IcacheStalls-s.DataStalls) / float64(s.issued())
}

// refsPerInstr is the suite's data references per issued instruction.
func (s suiteStats) refsPerInstr() float64 {
	return float64(s.Loads+s.Stores) / float64(s.issued())
}

// multiprogSpec is E6's multiprogrammed data-trace closure: two programs
// with working sets beyond the Ecache size, interleaved at the Smith-survey
// quantum (the paper used ATUM multiprogrammed traces because its
// benchmarks fit the Ecache entirely). Scaling the sweep's per-reference
// stall by a suite's reference density gives its estimated data stalls per
// instruction.
func multiprogSpec(seed int64) traceSpec {
	cfgA := trace.PascalSynth(160 * 1024)
	cfgA.Seed = seed
	cfgB := trace.LispSynth(160 * 1024)
	cfgB.Seed = seed + 100
	return traceSpec{
		Members: []synthSpec{{Cfg: cfgA, Refs: 150_000}, {Cfg: cfgB, Refs: 150_000}},
		Quantum: 10_000,
	}
}

// VAXComparison reproduces the conclusions' CISC comparison: MIPS-X
// executes ~25% more instructions (80% vs the Berkeley compiler), has ~25%
// larger static code, and runs the programs ~10–14× faster.
func VAXComparison() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "MIPS-X vs VAX-class CISC on the same source programs",
		Paper:  "path length +25% (to +80%), static size +25%, speedup 10–14×",
		Header: []string{"benchmark", "path ratio", "size ratio", "speedup"},
	}
	benches := table1Benchmarks()
	// Two memoizable cells per benchmark — the profiled MIPS-X run (the
	// same closure as E1's profiled row, so the cache serves both) and the
	// CISC reference run; ratios assemble after the fan-in, in benchmark
	// order, then the geometric mean.
	mx := newSuite("E7/mipsx", benches, true, spec.Default())
	cisc := make([]VAXResult, len(benches))
	cells := slices.Clone(mx.cells)
	for i, b := range benches {
		cells = append(cells, vaxCell("E7/vax/"+b.Name, b.Source, &cisc[i]))
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	var lnPath, lnSize, lnSpeed float64
	for i, b := range benches {
		// The static-size numerator comes from the build cache, not a cell:
		// the image is already built (the run cells' key computation builds
		// it) and counting its instructions simulates nothing.
		im, err := buildCached(b, reorg.Default())
		if err != nil {
			return nil, err
		}
		risc := mx.rs[i].Stats.Pipeline
		riscInstr := float64(risc.Issued())
		ciscInstr := float64(cisc[i].Stats.Instructions)
		riscTime := float64(risc.Cycles) / core.ClockMHz // µs
		ciscTime := float64(cisc[i].Stats.Cycles) / vaxlike.ClockMHz
		path := riscInstr / ciscInstr
		size := float64(tinyc.StaticInstructions(im)) / float64(cisc[i].CodeLen)
		speed := ciscTime / riscTime
		t.AddRow(b.Name, path, size, speed)
		lnPath += math.Log(path)
		lnSize += math.Log(size)
		lnSpeed += math.Log(speed)
	}
	n := float64(len(benches))
	t.AddRow("geometric mean", math.Exp(lnPath/n), math.Exp(lnSize/n), math.Exp(lnSpeed/n))
	t.Notes = append(t.Notes,
		"matmul's path ratio is dominated by the 32-step multiply sequences standing against one microcoded CISC MUL",
		"static size includes the multiply/divide step runtime, which the CISC needs no equivalent of")
	return t, nil
}

// MemoryBandwidth reproduces the bandwidth motivation (§MIPS-X
// Architecture): ~26 MW/s average demand and 40 MW/s peak at 20 MHz, cut
// down by the on-chip cache.
func MemoryBandwidth() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Memory bandwidth demand and the two-level cache",
		Paper:  "average demand ~26 MW/s, peak 40 MW/s; Icache gives a second port to memory",
		Header: []string{"metric", "MW/s"},
	}
	benches := table1Benchmarks()
	// One memoizable cell per benchmark, the same (benchmark × shipped
	// scheme × default config) closure as E1's shipped row and E3's MIPS-X
	// suite — three experiments, one set of simulations under the cache.
	mx := newSuite("E9", benches, false, spec.Default())
	if err := DefaultEngine().Run(context.Background(), mx.cells); err != nil {
		return nil, err
	}
	agg := core.Stats{}
	for i := range mx.rs {
		s := mx.rs[i].Stats
		agg.Pipeline.Fetches += s.Pipeline.Fetches
		agg.Pipeline.Loads += s.Pipeline.Loads
		agg.Pipeline.Stores += s.Pipeline.Stores
		agg.Pipeline.FPMemOps += s.Pipeline.FPMemOps
		agg.Pipeline.Cycles += s.Pipeline.Cycles
		agg.Icache.WordsFetched += s.Icache.WordsFetched
	}
	t.AddRow("peak demand (1 ifetch + 1 data/cycle)", 2*core.ClockMHz)
	t.AddRow("paper's rule of thumb (1 ifetch/cycle + data every 3rd)", core.ClockMHz*(1+1.0/3))
	t.AddRow("average demand without Icache (measured)", agg.DemandBandwidthMW())
	t.AddRow("pin traffic with Icache", agg.PinBandwidthMW())
	t.Notes = append(t.Notes, fmt.Sprintf("data references per instruction: %.2f",
		float64(agg.Pipeline.Loads+agg.Pipeline.Stores)/float64(agg.Pipeline.Fetches)))
	return t, nil
}

// EcacheAblations reproduces the external-cache substrate checks from the
// Smith survey the paper leaned on (E10): FIFO ≈ 12% worse than LRU,
// write-through ≫ copy-back bus traffic, miss ratio falling with size.
func EcacheAblations() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "External cache substrate ablations (Smith-survey shapes)",
		Paper:  "FIFO ~12% worse than LRU; write-through traffic ≫ copy-back; miss ratio falls with size",
		Header: []string{"configuration", "miss ratio", "bus words/1k refs"},
	}
	// The multiprogrammed trace: two members interleaved at the survey's
	// quantum, generated on first use by the ablation cells sharing its
	// source.
	ts := traceSpec{
		Members: []synthSpec{
			{Cfg: trace.PascalSynth(64 * 1024), Refs: 120_000},
			{Cfg: trace.LispSynth(64 * 1024), Refs: 120_000},
		},
		Quantum: 10_000,
	}
	src := ts.source()
	// Every row derives from the one SweepECache preset, so the ablations
	// can never drift from each other's baseline.
	type ablation struct {
		name   string
		ec     ecache.Config
		writes bool
	}
	var abls []ablation
	for _, size := range []int{4096, 16384, 65536} {
		abls = append(abls, ablation{fmt.Sprintf("LRU %dK words", size/1024),
			spec.SweepECache().WithSizeWords(size), false})
	}
	abls = append(abls,
		ablation{"FIFO 16K words", spec.SweepECache().WithRepl(ecache.FIFO), false},
		ablation{"Random 16K words", spec.SweepECache().WithRepl(ecache.Random), false},
		ablation{"copy-back 16K, 20% writes", spec.SweepECache(), true},
		ablation{"write-through 16K, 20% writes", spec.SweepECache().WithWrite(ecache.WriteThrough), true})
	// Smith's fetch algorithms (survey §2.1): one-block-lookahead prefetch.
	for _, p := range []struct {
		name  string
		fetch ecache.Prefetch
	}{
		{"demand fetch 16K", ecache.PrefetchNone},
		{"always prefetch 16K", ecache.PrefetchAlways},
		{"prefetch on miss 16K", ecache.PrefetchOnMiss},
		{"tagged prefetch 16K", ecache.PrefetchTagged},
	} {
		abls = append(abls, ablation{p.name,
			spec.SweepECache().WithLineWords(8).WithPrefetch(p.fetch), false})
	}
	// One memoized cell per configuration over the shared read-only trace,
	// keyed on the composite trace's identity plus the Ecache sub-spec.
	res := make([]ecacheSweep, len(abls))
	cells := make([]Cell, len(abls))
	for i := range abls {
		cells[i] = ecacheSweepCell(fmt.Sprintf("E10/abl[%d]", i), ts, abls[i].ec, abls[i].writes, src, &res[i])
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	for i, a := range abls {
		t.AddRow(a.name, fmt.Sprintf("%.4f", res[i].MissRatio), fmt.Sprintf("%.0f", res[i].BusPerKiloRef))
	}
	t.Notes = append(t.Notes,
		"prefetch rows reproduce Smith's ordering: always ≈ tagged ≪ on-miss < demand for the miss ratio, at higher bus traffic")
	return t, nil
}

// Experiment is one table of the evaluation: its ID (E1..E11) and the
// zero-argument function that regenerates it.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// Experiments lists the evaluation in DESIGN.md order. All and
// cmd/mipsx-bench run it; each experiment fans its own cells out through
// the default engine.
var Experiments = []Experiment{
	{"E1", Table1BranchSchemes},
	{"E2", IcacheDesign},
	{"E3", BranchConditionStats},
	{"E4", BranchCacheVsStatic},
	{"E5", CoprocessorSchemes},
	{"E6", SustainedThroughput},
	{"E7", VAXComparison},
	{"E8", ExceptionHandling},
	{"E9", MemoryBandwidth},
	{"E10", EcacheAblations},
	{"E11", MultiprocessorScaling},
}

// All runs every experiment in order and returns the tables; on an error
// it returns the tables finished before it.
func All() ([]*Table, error) {
	var out []*Table
	for _, x := range Experiments {
		tb, err := x.Run()
		if err != nil {
			return out, fmt.Errorf("%s: %w", x.ID, err)
		}
		out = append(out, tb)
	}
	return out, nil
}
