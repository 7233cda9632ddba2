package experiments

// The tentpole invariant of the observability substrate, enforced at full
// breadth: every benchmark × every Table 1 scheme, every cycle the machine
// simulates lands in exactly one ledger cause, and the per-unit seams obey
// the single-counting rule (icache.StallCycles INCLUDES the Ecache refill
// share, so the two Stats counters must never be summed — the ledger's
// icache-miss/ecache-ifetch split is the deduplicated truth).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
)

// TestConservationEveryBenchmarkEveryScheme runs the full Table 1 grid and
// checks conservation plus every seam equation on each run.
func TestConservationEveryBenchmarkEveryScheme(t *testing.T) {
	for _, b := range table1Benchmarks() {
		for _, scheme := range reorg.Table1Schemes() {
			t.Run(fmt.Sprintf("%s/%s", b.Name, scheme), func(t *testing.T) {
				im, err := buildCached(b, scheme)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				cfg := defaultConfig()
				cfg.Pipeline.BranchSlots = scheme.Slots
				m := core.New(cfg, nil)
				m.Observe(obs.NewMachineSink())
				m.Load(im)
				if _, err := m.Run(runLimit); err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := m.VerifyAttribution(); err != nil {
					t.Fatal(err)
				}
				if err := m.ObsReport().Check(); err != nil {
					t.Fatal(err)
				}

				// The seam rule, written out: the ledger's icache-miss and
				// ecache-ifetch rows partition icache.StallCycles (which
				// already contains the Ecache's refill share), so summing the
				// two Stats counters would double-count the ifetch refills.
				l := m.Obs.Ledger
				ic, ec := m.ICache.Stats, m.ECache.Stats
				miss, ifetch := l.Count(obs.CauseIcacheMiss), l.Count(obs.CauseEcacheIFetch)
				if miss+ifetch != ic.StallCycles {
					t.Errorf("icache seam: miss %d + ifetch %d != icache.StallCycles %d", miss, ifetch, ic.StallCycles)
				}
				rd, wr := l.Count(obs.CauseEcacheRead), l.Count(obs.CauseEcacheWrite)
				if ifetch+rd+wr != ec.StallCycles {
					t.Errorf("ecache seam: ifetch %d + read %d + write %d != ecache.StallCycles %d",
						ifetch, rd, wr, ec.StallCycles)
				}
				// The naive double-count (icache + ecache stalls) exceeds the
				// ledger's stall total by exactly the shared ifetch share.
				ledgerStalls := miss + ifetch + rd + wr
				if ic.StallCycles+ec.StallCycles != ledgerStalls+ifetch {
					t.Errorf("double-count rule: icache %d + ecache %d != ledger stalls %d + shared %d",
						ic.StallCycles, ec.StallCycles, ledgerStalls, ifetch)
				}
			})
		}
	}
}

// TestMemoReplaysAttributionByteIdentical records a cell cold and replays it
// hot from the same store, requiring the replayed attribution — per cell,
// engine-wide, and inside the cached RunResult — to be byte-identical to the
// live run's.
func TestMemoReplaysAttributionByteIdentical(t *testing.T) {
	store, err := NewMemoStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := table1Benchmarks()[0]
	scheme := reorg.Default()

	runOnce := func() (*Engine, RunResult, CellTiming) {
		e := &Engine{Record: true, Store: store}
		var out RunResult
		cell := benchCell("memo-attr/"+b.Name, b, scheme, false, spec.Default(), &out)
		if err := e.Run(context.Background(), []Cell{cell}); err != nil {
			t.Fatal(err)
		}
		tm := e.Timings()
		if len(tm) != 1 {
			t.Fatalf("want 1 timing, got %d", len(tm))
		}
		return e, out, tm[0]
	}

	eCold, outCold, tmCold := runOnce()
	eHot, outHot, tmHot := runOnce()
	if tmCold.Memo || !tmHot.Memo {
		t.Fatalf("memo flags: cold=%v hot=%v (want false/true)", tmCold.Memo, tmHot.Memo)
	}

	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if c, h := mustJSON(tmCold.Attribution), mustJSON(tmHot.Attribution); c != h {
		t.Errorf("per-cell attribution differs:\ncold %s\nhot  %s", c, h)
	}
	if c, h := mustJSON(eCold.Attribution()), mustJSON(eHot.Attribution()); c != h {
		t.Errorf("engine attribution differs:\ncold %s\nhot  %s", c, h)
	}
	if c, h := mustJSON(outCold.Obs), mustJSON(outHot.Obs); c != h {
		t.Errorf("cached RunResult report differs:\ncold %s\nhot  %s", c, h)
	}
	if eCold.Cycles() != eHot.Cycles() {
		t.Errorf("cycles differ: cold %d hot %d", eCold.Cycles(), eHot.Cycles())
	}
	// Both runs conserve: attribution sums to the accounted cycles.
	for name, e := range map[string]*Engine{"cold": eCold, "hot": eHot} {
		var sum uint64
		for _, v := range e.Attribution() {
			sum += v
		}
		if sum != e.Cycles() {
			t.Errorf("%s: attribution sums to %d, engine accounted %d", name, sum, e.Cycles())
		}
	}
	if len(tmHot.Attribution) == 0 {
		t.Error("hot replay carries no attribution")
	}
}

// TestBenchDocConservation asserts the report-level invariant the CI bench
// gate greps for.
func TestBenchDocConservation(t *testing.T) {
	e := &Engine{Record: true}
	var out RunResult
	cell := benchCell("doc-attr", table1Benchmarks()[0], reorg.Default(), false, spec.Default(), &out)
	if err := e.Run(context.Background(), []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	doc := NewBenchDoc(nil, nil, 0, 1, true, false, e)
	if !doc.AttributionConserved {
		t.Fatalf("doc not conserved: attributed %d, simulated %d", doc.AttributedCycles, doc.TotalCyclesSimulated)
	}
	if doc.AttributedCycles == 0 {
		t.Fatal("no cycles attributed")
	}
	if len(doc.Attribution) == 0 {
		t.Fatal("empty attribution map")
	}
}

// TestCellAccountsToItsOwnEngine: a live cell's cycles and attribution land
// on the engine that ran it — here not the package default — and the
// default engine gains none of them.
func TestCellAccountsToItsOwnEngine(t *testing.T) {
	def := DefaultEngine()
	defCycles, defAttr := def.Cycles(), def.Attribution()
	e := &Engine{Record: true}
	var out RunResult
	cell := benchCell("own-engine", table1Benchmarks()[0], reorg.Default(), false, spec.Default(), &out)
	if err := e.Run(context.Background(), []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	want := out.Stats.Pipeline.Cycles
	if want == 0 || e.Cycles() != want {
		t.Fatalf("engine accounted %d cycles, the run simulated %d", e.Cycles(), want)
	}
	var attributed uint64
	for _, v := range e.Attribution() {
		attributed += v
	}
	if attributed != want {
		t.Fatalf("engine attribution sums to %d, want %d", attributed, want)
	}
	if tm := e.Timings(); len(tm) != 1 || !reflect.DeepEqual(tm[0].Attribution, e.Attribution()) {
		t.Fatalf("cell row attribution %v, engine %v", tm, e.Attribution())
	}
	if def.Cycles() != defCycles || !reflect.DeepEqual(def.Attribution(), defAttr) {
		t.Fatalf("default engine gained %d cycles from a cell it did not run", def.Cycles()-defCycles)
	}
}

// TestCellTimingsPartitionCycles: cells are flat, so a report's per-cell
// rows partition its totals — each simulated cycle appears in exactly one
// row — and every row names its experiment uniquely. E1, E3 and E6 are the
// experiments whose suites used to run as cells inside cells.
func TestCellTimingsPartitionCycles(t *testing.T) {
	defer Configure(0, 0, false)
	e := Configure(1, 0, true)
	for _, fn := range []func() (*Table, error){Table1BranchSchemes, BranchConditionStats, SustainedThroughput} {
		if _, err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	sum := map[string]uint64{}
	var total uint64
	ids := map[string]bool{}
	for _, ct := range e.Timings() {
		if ids[ct.ID] {
			t.Errorf("cell ID %q appears twice", ct.ID)
		}
		ids[ct.ID] = true
		if !strings.HasPrefix(ct.ID, "E1/") && !strings.HasPrefix(ct.ID, "E3/") && !strings.HasPrefix(ct.ID, "E6/") {
			t.Errorf("cell ID %q does not name its experiment", ct.ID)
		}
		for k, v := range ct.Attribution {
			sum[k] += v
			total += v
		}
	}
	if total != e.Cycles() || !reflect.DeepEqual(sum, e.Attribution()) {
		t.Fatalf("cell rows sum to %d cycles %v; engine accounted %d %v", total, sum, e.Cycles(), e.Attribution())
	}
	if uint64(len(ids)) != e.Cells() {
		t.Fatalf("%d distinct cell IDs, %d cells", len(ids), e.Cells())
	}
}

// TestMeasureObsOverhead smoke-tests the overhead harness at a tiny
// iteration count (the real numbers are recorded by mipsx-bench).
func TestMeasureObsOverhead(t *testing.T) {
	o, err := MeasureObsOverhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if o.BaselineMS <= 0 || o.LedgerMS <= 0 || o.WindowedMS <= 0 || o.TracerMS <= 0 {
		t.Fatalf("non-positive timing: %+v", o)
	}
	if o.Benchmark == "" || o.Iterations != 1 || o.Pairs != obsPairs {
		t.Fatalf("bad metadata: %+v", o)
	}
	for _, q := range [][3]float64{
		{o.LedgerPctQ1, o.LedgerPct, o.LedgerPctQ3},
		{o.WindowedPctQ1, o.WindowedPct, o.WindowedPctQ3},
		{o.TracerPctQ1, o.TracerPct, o.TracerPctQ3},
	} {
		if q[0] > q[1] || q[1] > q[2] {
			t.Fatalf("quartiles out of order %v: %s", q, o)
		}
	}
}

// TestObsOverheadBudget enforces the documented observability budget on
// the median of interleaved off/on pairs: the always-on ledger — windowed
// or not — must stay cheap relative to an unobserved run, and the streamed
// instruction tracer must stay within an order of magnitude.
// Wall-clock-sensitive and therefore opt-in: run with OBS_BUDGET=1 (make
// stream-gate does).
func TestObsOverheadBudget(t *testing.T) {
	if os.Getenv("OBS_BUDGET") == "" {
		t.Skip("timing-sensitive; set OBS_BUDGET=1 to run")
	}
	o, err := MeasureObsOverhead(20)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(o.String())
	// Absolute backstop: over 53 standalone runs on the 2-vCPU reference
	// host the ledger medians measure -1.1 to +53.7% (middle +11.9%) and
	// the windowed-ledger medians -4.2 to +32.8% (middle +13.1%) (DESIGN.md
	// §11 records them); the gate sits at 30% so that a hot-path regression
	// (an allocation or lock per ledger charge lands in the hundreds of
	// percent) cannot pass.
	const limit = 30.0
	if o.LedgerPct > limit {
		t.Errorf("ledger overhead median %.1f%% exceeds the %.0f%% budget backstop (measured medians -1.1 to +53.7%%, middle +11.9%%, DESIGN.md §11)", o.LedgerPct, limit)
	}
	if o.WindowedPct > limit {
		t.Errorf("windowed-ledger overhead median %.1f%% exceeds the %.0f%% budget backstop (measured medians -4.2 to +32.8%%, middle +13.1%%, DESIGN.md §11)", o.WindowedPct, limit)
	}
	// Incremental gate on what windowing adds over the plain ledger: with
	// windows attached a charge is two adds and a compare, and a window is
	// cut from ledger snapshots, so windowed time must stay within 35% of
	// ledger time (measured ratio of the medians over 53 runs: 0.71 to
	// 1.45, middle 1.03; DESIGN.md §11).
	if o.WindowedMS > o.LedgerMS*1.35 {
		t.Errorf("windowed ledger median %.1fms is more than 1.35x the plain ledger's %.1fms — windowing hot path regressed",
			o.WindowedMS, o.LedgerMS)
	}
	// Tracer backstop: streaming every instruction measures +105 to +161%
	// (middle +133%, 12 standalone runs); an encoder that reached back into
	// fmt, reflection or a per-event allocation measures near +4000%.
	const tracerLimit = 1000.0
	if o.TracerPct > tracerLimit {
		t.Errorf("tracer overhead median %.1f%% exceeds the %.0f%% backstop (measured medians +105 to +161%%, DESIGN.md §11)", o.TracerPct, tracerLimit)
	}
}
