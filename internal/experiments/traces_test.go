package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/trace"
)

// countedMemoCell is a minimal memoizable cell for counter tests.
func countedMemoCell(runs *int, out *int) Cell {
	return Cell{
		ID: "counted",
		Fn: func(context.Context) error {
			*runs++
			*out = 7
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) { return newKey("test").str("id", "counted").sum(), nil },
			Out: out,
		},
	}
}

// TestBenchDocMemoFieldsAgreeWithoutStore is the regression test for the
// report-consistency bug: a store-less run used to leave MemoHitRate at zero
// regardless of the hit/miss counters, because the rate was read off the
// (absent) store instead of derived from the document's own fields.
func TestBenchDocMemoFieldsAgreeWithoutStore(t *testing.T) {
	var runs, out int
	e := &Engine{Workers: 1}
	if err := e.Run(context.Background(), []Cell{countedMemoCell(&runs, &out)}); err != nil {
		t.Fatal(err)
	}
	doc := NewBenchDoc(nil, nil, time.Second, 1, true, false, e)
	if doc.MemoMisses != 1 || doc.MemoHits != 0 {
		t.Fatalf("store-less run: hits/misses = %d/%d, want 0/1 (a memoizable cell ran live)",
			doc.MemoHits, doc.MemoMisses)
	}
	if doc.MemoHitRate != 0 {
		t.Fatalf("store-less hit rate = %v, want 0", doc.MemoHitRate)
	}

	// Two runs on one engine: one miss (cold) + one hit (the engine's
	// table) → rate 0.5, derived from the document's own counters.
	runs = 0
	e2 := &Engine{Workers: 1}
	for pass := 0; pass < 2; pass++ {
		if err := e2.Run(context.Background(), []Cell{countedMemoCell(&runs, &out)}); err != nil {
			t.Fatal(err)
		}
	}
	doc2 := NewBenchDoc(nil, nil, time.Second, 1, true, false, e2)
	if doc2.MemoHits != 1 || doc2.MemoMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", doc2.MemoHits, doc2.MemoMisses)
	}
	if doc2.MemoHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", doc2.MemoHitRate)
	}
	if runs != 1 {
		t.Fatalf("cell body ran %d times, want 1", runs)
	}
}

// TestTraceCellsReplayWithoutGenerating checks that a trace is an input,
// not a stored result: cold, an Icache-cost cell and an Ecache-sweep cell
// generate their traces through the lazy sources; hot, a fresh engine over
// the same store directory replays equal results without calling a source
// at all.
func TestTraceCellsReplayWithoutGenerating(t *testing.T) {
	store, err := NewMemoStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	single := synthTrace(trace.LispSynth(0), 30_000)
	comp := traceSpec{Members: []synthSpec{
		{Cfg: trace.PascalSynth(8 * 1024), Refs: 20_000},
		{Cfg: trace.LispSynth(8 * 1024), Refs: 20_000},
	}, Quantum: 1000}
	run := func(isrc, esrc func() ([]isa.Word, error)) (fetchCost, ecacheSweep, *Engine) {
		var fc fetchCost
		var es ecacheSweep
		e := &Engine{Workers: 1, Store: store}
		cells := []Cell{
			icacheCostCell("ic", single, spec.Default().ICache, isrc, &fc),
			ecacheSweepCell("ec", comp, spec.SweepECache(), true, esrc, &es),
		}
		if err := e.Run(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
		return fc, es, e
	}

	var calls atomic.Int32
	counted := func(src func() ([]isa.Word, error)) func() ([]isa.Word, error) {
		return func() ([]isa.Word, error) {
			calls.Add(1)
			return src()
		}
	}
	coldFC, coldES, ce := run(counted(single.source()), counted(comp.source()))
	if n := calls.Load(); n != 2 || ce.MemoMisses() != 2 || ce.MemoHits() != 0 {
		t.Fatalf("cold pass: %d source calls, hits/misses %d/%d, want 2 and 0/2",
			n, ce.MemoHits(), ce.MemoMisses())
	}
	if coldFC.Miss == 0 || coldES.MissRatio == 0 || coldES.BusPerKiloRef == 0 {
		t.Fatalf("cold results look empty: %+v %+v", coldFC, coldES)
	}

	failing := func(name string) func() ([]isa.Word, error) {
		return func() ([]isa.Word, error) {
			t.Errorf("hot pass called the %s cell's trace source", name)
			return nil, errors.New("trace source called on replay")
		}
	}
	hotFC, hotES, he := run(failing("icache"), failing("ecache"))
	if he.MemoHits() != 2 || he.MemoMisses() != 0 {
		t.Fatalf("hot pass hits/misses = %d/%d, want 2/0", he.MemoHits(), he.MemoMisses())
	}
	if hotFC != coldFC || hotES != coldES {
		t.Fatalf("replayed results differ: %+v %+v, cold %+v %+v", hotFC, hotES, coldFC, coldES)
	}
}

// TestTraceSourceGeneratesOnce checks that every call of one source, from
// any number of goroutines, returns the same backing array: the trace is
// generated once and shared read-only.
func TestTraceSourceGeneratesOnce(t *testing.T) {
	for _, ts := range []traceSpec{
		synthTrace(trace.PascalSynth(0), 20_000),
		{Members: []synthSpec{
			{Cfg: trace.PascalSynth(8 * 1024), Refs: 10_000},
			{Cfg: trace.LispSynth(8 * 1024), Refs: 10_000},
		}, Quantum: 1000},
	} {
		src := ts.source()
		got := make([][]isa.Word, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := src()
				if err != nil {
					t.Error(err)
				}
				got[i] = tr
			}()
		}
		wg.Wait()
		if len(got[0]) != 20_000 {
			t.Fatalf("source returned %d refs, want 20000", len(got[0]))
		}
		for i := range got {
			if len(got[i]) != len(got[0]) || &got[i][0] != &got[0][0] {
				t.Fatalf("call %d returned a different stream: the trace was generated more than once", i)
			}
		}
	}
}

// TestTraceKeysCoverTheClosure extends the closure-coverage property to the
// trace identities and the derived-sweep keys: every input that changes the
// data changes the key, and only those.
func TestTraceKeysCoverTheClosure(t *testing.T) {
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s and %s hash identically", prev, name)
		}
		seen[key] = name
	}

	pas := trace.PascalSynth(0)
	base := synthSpec{Cfg: pas, Refs: 300_000}
	add("synth/base", base.key())

	// Every SynthConfig field and the reference count are in the closure.
	vary := []func(*synthSpec){
		func(s *synthSpec) { s.Refs = 300_001 },
		func(s *synthSpec) { s.Cfg.CodeWords++ },
		func(s *synthSpec) { s.Cfg.Funcs++ },
		func(s *synthSpec) { s.Cfg.AvgRun++ },
		func(s *synthSpec) { s.Cfg.AvgLoopIters++ },
		func(s *synthSpec) { s.Cfg.CallProb += 0.01 },
		func(s *synthSpec) { s.Cfg.HotFuncs++ },
		func(s *synthSpec) { s.Cfg.HotBias += 0.01 },
		func(s *synthSpec) { s.Cfg.MaxDepth++ },
		func(s *synthSpec) { s.Cfg.Seed++ },
	}
	for i, f := range vary {
		s := base
		f(&s)
		add(fmt.Sprintf("synth/vary[%d]", i), s.key())
	}

	// A one-member, zero-quantum traceSpec IS its member: same stream, same
	// key, so its sweeps share cells with the member's.
	single := synthTrace(pas, 300_000)
	if single.key() != base.key() {
		t.Fatal("one-member traceSpec does not share its member's key")
	}

	// Composites: quantum, member set and member order are all identity.
	lis := synthSpec{Cfg: trace.LispSynth(0), Refs: 300_000}
	comp := traceSpec{Members: []synthSpec{base, lis}, Quantum: 10_000}
	add("interleave/base", comp.key())
	add("interleave/quantum", traceSpec{Members: comp.Members, Quantum: 20_000}.key())
	add("interleave/swapped", traceSpec{Members: []synthSpec{lis, base}, Quantum: 10_000}.key())
	add("interleave/one-member", traceSpec{Members: []synthSpec{base}, Quantum: 10_000}.key())

	// Derived sweeps: trace identity and every parameter reach the key.
	keyOf := func(c Cell) string {
		k, err := c.Memo.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	var fc fetchCost
	icfg := spec.Default().ICache
	add("icache/base", keyOf(icacheCostCell("x", single, icfg, nil, &fc)))
	add("icache/other-trace", keyOf(icacheCostCell("x", comp, icfg, nil, &fc)))
	add("icache/other-cfg", keyOf(icacheCostCell("x", single, icfg.WithFetch(1, icfg.MissPenalty), nil, &fc)))

	var es ecacheSweep
	ecfg := spec.DefaultECache()
	add("ecache/base", keyOf(ecacheSweepCell("x", single, ecfg, false, nil, &es)))
	add("ecache/writes", keyOf(ecacheSweepCell("x", single, ecfg, true, nil, &es)))
	add("ecache/other-cfg", keyOf(ecacheSweepCell("x", single, ecfg.WithLineWords(2*ecfg.LineWords), false, nil, &es)))

	// E4's cells: the suite stream's closure is every member's run closure
	// (source, scheme, spec), the synthetic stream's is (n, sites, seed),
	// and both cells add the row list.
	var pe []predEval
	rows := []predRow{{"s", "static", 0}, {"c", "cache", 64}}
	benches := table1Benchmarks()[:2]
	ms := spec.Default()
	// The base key builds (and caches) the real images first, so the
	// altered-source member below hashes a different source over the same
	// cached image instead of caching its own.
	add("bpred-suite/base", keyOf(bpredCell("x", suiteBranches(benches, reorg.Default(), ms), rows, &pe)))
	edited := slices.Clone(benches)
	edited[1].Source += "\n"
	add("bpred-suite/source", keyOf(bpredCell("x", suiteBranches(edited, reorg.Default(), ms), rows, &pe)))
	add("bpred-suite/members", keyOf(bpredCell("x", suiteBranches(benches[:1], reorg.Default(), ms), rows, &pe)))
	oneSlot := reorg.Scheme{Slots: 1, Squash: reorg.SquashOptional}
	add("bpred-suite/scheme", keyOf(bpredCell("x", suiteBranches(benches, oneSlot, ms), rows, &pe)))
	ms8 := ms
	ms8.ICache.Sets = 8
	add("bpred-suite/spec", keyOf(bpredCell("x", suiteBranches(benches, reorg.Default(), ms8), rows, &pe)))
	add("bpred-suite/rows", keyOf(bpredCell("x", suiteBranches(benches, reorg.Default(), ms), rows[:1], &pe)))
	add("bpred-suite/entries", keyOf(bpredCell("x", suiteBranches(benches, reorg.Default(), ms),
		[]predRow{rows[0], {"c", "cache", 256}}, &pe)))
	add("bpred-suite/kind", keyOf(bpredCell("x", suiteBranches(benches, reorg.Default(), ms),
		[]predRow{{"s", "profile", 0}, rows[1]}, &pe)))

	add("bpred-synthetic/base", keyOf(bpredCell("x", syntheticBranches(1000, 40, 11), rows, &pe)))
	add("bpred-synthetic/n", keyOf(bpredCell("x", syntheticBranches(1001, 40, 11), rows, &pe)))
	add("bpred-synthetic/sites", keyOf(bpredCell("x", syntheticBranches(1000, 41, 11), rows, &pe)))
	add("bpred-synthetic/seed", keyOf(bpredCell("x", syntheticBranches(1000, 40, 12), rows, &pe)))
	add("bpred-synthetic/rows", keyOf(bpredCell("x", syntheticBranches(1000, 40, 11), rows[1:], &pe)))

	// Row names are presentation: they do not reach the key.
	renamed := []predRow{{"other", "static", 0}, {"names", "cache", 64}}
	if keyOf(bpredCell("x", syntheticBranches(1000, 40, 11), renamed, &pe)) !=
		keyOf(bpredCell("x", syntheticBranches(1000, 40, 11), rows, &pe)) {
		t.Fatal("a row's display name moved the key")
	}
}

// TestE4StoresRowsNotStreams runs E4 cold, then hot over the same store
// with the branch capture and the synthesis stubbed to fail: both cells
// replay their rows, the table is unchanged, and neither stream is
// produced. The cold rows carry the capture's cycles on E4/suite and none
// on E4/synthetic, and together they partition the engine's totals.
func TestE4StoresRowsNotStreams(t *testing.T) {
	defer Configure(0, 0, false)
	store, err := NewMemoStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pass := func(suite, big branchStream) (*Table, *Engine) {
		e := Configure(1, 0, true)
		e.Store = store
		tb, err := branchPrediction(suite, big)
		if err != nil {
			t.Fatal(err)
		}
		return tb, e
	}

	cold, ce := pass(e4Streams())
	if ce.MemoHits() != 0 || ce.MemoMisses() != 2 || ce.Cells() != 2 {
		t.Fatalf("cold pass: %d cells, hits/misses %d/%d; want 2 cells, 0/2", ce.Cells(), ce.MemoHits(), ce.MemoMisses())
	}
	rows := map[string]uint64{}
	sum := map[string]uint64{}
	for _, ct := range ce.Timings() {
		for k, v := range ct.Attribution {
			rows[ct.ID] += v
			sum[k] += v
		}
	}
	if rows["E4/suite"] != 1_528_236 || rows["E4/synthetic"] != 0 {
		t.Fatalf("cold rows carry %v cycles; want E4/suite 1528236, E4/synthetic 0", rows)
	}
	if ce.Cycles() != 1_528_236 || !reflect.DeepEqual(sum, ce.Attribution()) {
		t.Fatalf("cell rows sum to %v; engine accounted %d cycles %v", sum, ce.Cycles(), ce.Attribution())
	}

	suite, big := e4Streams()
	suite.events = func(context.Context) ([]trace.BranchEvent, error) {
		t.Error("hot pass captured the suite's branches")
		return nil, errors.New("capture called on replay")
	}
	big.events = func(context.Context) ([]trace.BranchEvent, error) {
		t.Error("hot pass synthesized the large-program stream")
		return nil, errors.New("synthesis called on replay")
	}
	hot, he := pass(suite, big)
	if he.MemoHits() != 2 || he.MemoMisses() != 0 {
		t.Fatalf("hot pass hits/misses = %d/%d, want 2/0", he.MemoHits(), he.MemoMisses())
	}
	if hot.String() != cold.String() {
		t.Fatalf("replayed table differs:\n%s\ncold:\n%s", hot, cold)
	}
	if he.Cycles() != ce.Cycles() || !reflect.DeepEqual(he.Attribution(), ce.Attribution()) {
		t.Fatalf("hot pass accounted %d cycles %v; cold %d %v", he.Cycles(), he.Attribution(), ce.Cycles(), ce.Attribution())
	}
}

// TestIdealBackingNeverStalls: over E2's organization grid and both of its
// traces, the one-line backing Ecache never stalls, so each Icache's stall
// cycles are exactly its misses times its miss penalty.
func TestIdealBackingNeverStalls(t *testing.T) {
	traces := []traceSpec{
		synthTrace(trace.PascalSynth(0), 300_000),
		synthTrace(trace.LispSynth(0), 300_000),
	}
	for _, ts := range traces {
		tr, err := ts.source()()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][2]int{{1, 2}, {2, 2}, {3, 2}, {2, 3}, {1, 3}} {
			ic := idealBackedIcache(spec.Default().ICache.WithFetch(f[0], f[1]))
			for _, a := range tr {
				ic.Fetch(a)
			}
			st := ic.Stats
			if ec := ic.Backing.Stats; ec.StallCycles != 0 || st.Misses == 0 || st.StallCycles != st.Misses*uint64(f[1]) {
				t.Errorf("%s, fetch-back %d, penalty %d: backing stalled %d cycles; icache %d misses, %d stall cycles",
					ts.key(), f[0], f[1], ec.StallCycles, st.Misses, st.StallCycles)
			}
		}
	}
}
