package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// fibWith returns the fib benchmark, its Expect wrapped by wrap when set.
// Expect is outside the run's closure, so every variant shares fib's key.
func fibWith(t *testing.T, wrap func(orig func() string) func() string) tinyc.Benchmark {
	t.Helper()
	b, err := tinyc.BenchmarkByName("fib")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		b.Expect = wrap(b.Expect)
	}
	return b
}

// captureCells builds n cells named prefix[i] that each read b's
// shipped-scheme capture, as each member of E4's suite stream does.
func captureCells(prefix string, n int, b tinyc.Benchmark) []Cell {
	return indexedCells(prefix, n, func(ctx context.Context, _ int) error {
		_, err := captured(ctx, b, reorg.Default(), spec.Default(), true)
		return err
	})
}

// cellRows returns each recorded cell's attribution by ID, after checking
// that the rows partition the engine's totals.
func cellRows(t *testing.T, e *Engine) map[string]map[string]uint64 {
	t.Helper()
	rows := map[string]map[string]uint64{}
	sum := map[string]uint64{}
	var total uint64
	for _, ct := range e.Timings() {
		rows[ct.ID] = ct.Attribution
		for k, v := range ct.Attribution {
			sum[k] += v
			total += v
		}
	}
	if total != e.Cycles() || !reflect.DeepEqual(sum, e.Attribution()) {
		t.Fatalf("cell rows sum to %d cycles %v; engine accounted %d %v", total, sum, e.Cycles(), e.Attribution())
	}
	return rows
}

// sameRows checks that every named row carries one non-empty attribution.
func sameRows(t *testing.T, rows map[string]map[string]uint64, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if len(rows[id]) == 0 || !reflect.DeepEqual(rows[id], rows[ids[0]]) {
			t.Fatalf("row %s accounts %v; row %s accounts %v", id, rows[id], ids[0], rows[ids[0]])
		}
	}
}

// awaitJoins waits until n readers have joined an entry of the table, a
// capture's when captures is set and a memoized result's otherwise.
func awaitJoins(t *testing.T, table *resultTable, captures bool, n int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); table.counts(captures).joins < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers joined the entry", table.counts(captures).joins, n)
		}
	}
}

// gateCtx holds its capture in flight: the first Err call, which
// runMachine makes before simulating, signals entered, blocks until
// release closes and then reports the cell cancelled.
type gateCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (g *gateCtx) Err() error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return context.Canceled
}

// TestEngineSharesCaptures: several cells reading one identity simulate it
// once, each accounts the same cycles and attribution, and the rows
// partition the engine's totals. A capture whose run panics, or whose cell
// is cancelled, releases the readers waiting on it and leaves no entry; the
// next reader simulates it under its own context.
func TestEngineSharesCaptures(t *testing.T) {
	ctx := context.Background()
	ids := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s[%d]", prefix, i)
		}
		return out
	}

	t.Run("shared", func(t *testing.T) {
		fib := fibWith(t, nil)
		e := &Engine{Workers: 4, Record: true}
		// The plain cells come after the first Workers cells, so a worker
		// reaches one only after a capture cell has finished. The plain
		// cells share one memo key: the first reads the capture instead of
		// simulating, and the other three read its result.
		var plain [4]RunResult
		cells := captureCells("capture", 4, fib)
		for i, id := range ids("plain", len(plain)) {
			cells = append(cells, benchCell(id, fib, reorg.Default(), false, spec.Default(), &plain[i]))
		}
		if err := e.Run(ctx, cells); err != nil {
			t.Fatal(err)
		}
		if c := e.table.counts(true); c != (tableCounts{entries: 1, sims: 1, joins: 4}) {
			t.Fatalf("captures %+v; want one capture simulated once and joined by 4 readers", c)
		}
		if e.MemoMisses() != 1 || e.MemoHits() != 3 {
			t.Fatalf("memo misses %d, hits %d; want the plain run produced once and read 3 times", e.MemoMisses(), e.MemoHits())
		}
		sameRows(t, cellRows(t, e), append(ids("capture", 4), ids("plain", 4)...)...)

		// A plain run read from the capture equals one simulated on its own.
		var own RunResult
		if err := (&Engine{}).Run(ctx, []Cell{benchCell("own", fib, reorg.Default(), false, spec.Default(), &own)}); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(own)
		for i := range plain {
			if got, _ := json.Marshal(plain[i]); string(got) != string(want) {
				t.Fatalf("plain[%d] read from the capture differs from its own run:\n%s\nwant\n%s", i, got, want)
			}
		}
	})

	// failed holds a capture in flight with hold, lets 4 readers of another
	// Run join it, fails it with fail, and checks that the readers were
	// released, one of them simulated the run again, and the table keeps
	// only that second capture.
	failed := func(t *testing.T, e *Engine, fib tinyc.Benchmark, hold, fail func(), ownerErr <-chan error, wantErr string) {
		hold()
		readers := make(chan error, 1)
		go func() { readers <- e.Run(ctx, captureCells("reader", 4, fib)) }()
		awaitJoins(t, &e.table, true, 4)
		fail()
		if err := <-ownerErr; err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("owner returned %v, want %q", err, wantErr)
		}
		if err := <-readers; err != nil {
			t.Fatalf("readers of a failed capture: %v", err)
		}
		if c := e.table.counts(true); c != (tableCounts{entries: 1, sims: 2, joins: 7}) {
			t.Fatalf("table %+v; want the failed capture gone and one reader's capture joined by the other 3", c)
		}
		sameRows(t, cellRows(t, e), ids("reader", 4)...)
	}

	t.Run("panic", func(t *testing.T) {
		inFlight, release := make(chan struct{}), make(chan struct{})
		var calls atomic.Int32
		fib := fibWith(t, func(orig func() string) func() string {
			return func() string {
				if calls.Add(1) == 1 {
					close(inFlight)
					<-release
					panic("expect panicked")
				}
				return orig()
			}
		})
		e := &Engine{Workers: 4, Record: true}
		ownerErr := make(chan error, 1)
		go func() { ownerErr <- e.Run(ctx, captureCells("owner", 1, fib)) }()
		failed(t, e, fib, func() { <-inFlight }, func() { close(release) }, ownerErr, "expect panicked")
	})

	t.Run("cancel", func(t *testing.T) {
		fib := fibWith(t, nil)
		e := &Engine{Workers: 4, Record: true}
		gate := &gateCtx{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
		ownerErr := make(chan error, 1)
		go func() {
			_, err := captured(context.WithValue(gate, meterKeyType{}, &cellMeter{table: &e.table}), fib, reorg.Default(), spec.Default(), true)
			if errors.Is(err, context.Canceled) {
				err = errors.New("owner cancelled")
			}
			ownerErr <- err
		}()
		failed(t, e, fib, func() { <-gate.entered }, func() { close(gate.release) }, ownerErr, "owner cancelled")
	})
}

// TestShippedRunsSimulatedOnce: on a fresh engine at -parallel 1, E1
// simulates each of the 14 shipped identities once, for its profiled row,
// and its shipped-scheme row reads them; a following E4 reads them again
// and simulates none. The accounting is unchanged: the shipped row carries
// 1,528,236 cycles, E1/profiled 3,046,906 and E4/suite 1,528,236, and the
// rows partition the engine's totals.
func TestShippedRunsSimulatedOnce(t *testing.T) {
	defer Configure(0, 0, false)
	e := Configure(1, 0, true)
	n := len(table1Benchmarks())
	if _, err := Table1BranchSchemes(); err != nil {
		t.Fatal(err)
	}
	if c := e.table.counts(true); c != (tableCounts{entries: n, sims: n, joins: n}) {
		t.Fatalf("after E1 the table is %+v; want %d captures, each simulated once and read by the shipped row", c, n)
	}
	if _, err := BranchCacheVsStatic(); err != nil {
		t.Fatal(err)
	}
	if c := e.table.counts(true); c != (tableCounts{entries: n, sims: n, joins: 2 * n}) {
		t.Fatalf("after E4 the table is %+v; want E4 to read all %d captures and simulate none", c, n)
	}
	rows := cellRows(t, e)
	for prefix, want := range map[string]uint64{
		"E1/" + reorg.Default().String() + "/": 1_528_236,
		"E1/profiled/":                         3_046_906,
		"E4/suite":                             1_528_236,
	} {
		var got uint64
		for id, attr := range rows {
			if strings.HasPrefix(id, prefix) {
				for _, v := range attr {
					got += v
				}
			}
		}
		if got != want {
			t.Errorf("%s* rows carry %d cycles, want %d", prefix, got, want)
		}
	}
}

// TestCaptureChecksExpectedOutput: a capture makes every check a plain run
// makes, so E4's suite stream fails on a benchmark whose output disagrees
// with its Expect instead of evaluating predictors over a wrong run.
func TestCaptureChecksExpectedOutput(t *testing.T) {
	fib := fibWith(t, func(func() string) func() string {
		return func() string { return "not fib's output" }
	})
	var pe []predEval
	src := suiteBranches([]tinyc.Benchmark{fib}, reorg.Default(), spec.Default())
	err := (&Engine{Workers: 1}).Run(context.Background(), []Cell{bpredCell("E4/suite", src, []predRow{{"static", "static", 0}}, &pe)})
	if err == nil || !strings.Contains(err.Error(), "wrong output") {
		t.Fatalf("capture of a benchmark with the wrong expected output returned %v; want a wrong-output error", err)
	}
}

// noJSON is a result that refuses JSON, so sharing it proves that no
// round trip happened.
type noJSON struct{ V int }

func (noJSON) MarshalJSON() ([]byte, error) { return nil, errors.New("noJSON encoded") }
func (*noJSON) UnmarshalJSON([]byte) error  { return errors.New("noJSON decoded") }

// sharedKey is the one memo key the sharing tests' cells carry.
var sharedKey = newKey("test").str("id", "shared").sum()

// sharedCells builds n memoizable cells named prefix[i], all keyed
// sharedKey, whose bodies call body with the cell's context and result slot.
func sharedCells(prefix string, outs []noJSON, body func(ctx context.Context, out *noJSON) error) []Cell {
	cells := make([]Cell, len(outs))
	for i := range cells {
		cells[i] = Cell{
			ID: fmt.Sprintf("%s[%d]", prefix, i),
			Fn: func(ctx context.Context) error { return body(ctx, &outs[i]) },
			Memo: &CellMemo{
				Key: func() (string, error) { return sharedKey, nil },
				Out: &outs[i],
			},
		}
	}
	return cells
}

// produced is the sharing tests' live result: it charges 7 cycles and
// sets out.
func produced(ctx context.Context, out *noJSON) error {
	account(ctx, 7, map[string]uint64{"execute": 5, "nop": 2})
	out.V = 99
	return nil
}

// TestEngineSharesMemoizedCells: eight memoizable cells with one key at 4
// workers run the body once. The other three cells of the first batch
// find the result in flight and wait for it, and the last four find it
// done; all seven take the producer's value without a JSON round trip
// (noJSON refuses one), account its cycles, and count as hits.
func TestEngineSharesMemoizedCells(t *testing.T) {
	e := &Engine{Workers: 4, Record: true}
	outs := make([]noJSON, 8)
	var runs atomic.Int32
	err := e.Run(context.Background(), sharedCells("cell", outs, func(ctx context.Context, out *noJSON) error {
		runs.Add(1)
		// Hold the result in flight until the rest of the first batch waits.
		for deadline := time.Now().Add(30 * time.Second); e.table.counts(false).joins < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return errors.New("the first batch never joined the result in flight")
			}
		}
		return produced(ctx, out)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || e.MemoMisses() != 1 || e.MemoHits() != 7 {
		t.Fatalf("body ran %d times, memo misses %d, hits %d; want 1, 1, 7", runs.Load(), e.MemoMisses(), e.MemoHits())
	}
	if c := e.table.counts(false); c != (tableCounts{entries: 1, sims: 1, joins: 7}) {
		t.Fatalf("memoized results %+v; want one produced once and read by 7 cells", c)
	}
	for i, o := range outs {
		if o.V != 99 {
			t.Fatalf("cell[%d] holds %d, want 99", i, o.V)
		}
	}
	var replayed int
	for _, ct := range e.Timings() {
		if ct.Memo {
			replayed++
		}
	}
	if replayed != 7 {
		t.Fatalf("%d rows marked memo, want 7", replayed)
	}
	rows := cellRows(t, e)
	ids := make([]string, len(outs))
	for i := range ids {
		ids[i] = fmt.Sprintf("cell[%d]", i)
	}
	sameRows(t, rows, ids...)
	if e.Cycles() != 8*7 {
		t.Fatalf("engine accounted %d cycles, want %d", e.Cycles(), 8*7)
	}
}

// TestEngineMemoProducerFailureReleasesWaiters: a memoized producer that
// errors, panics or is cancelled releases the cells waiting on it and
// leaves no entry; one waiter then produces the result under its own
// context and the others read it.
func TestEngineMemoProducerFailureReleasesWaiters(t *testing.T) {
	for _, mode := range []string{"error", "panic", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			e := &Engine{Workers: 4, Record: true}
			inFlight, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int32
			body := func(ctx context.Context, out *noJSON) error {
				if calls.Add(1) > 1 {
					return produced(ctx, out)
				}
				close(inFlight)
				<-release
				switch mode {
				case "error":
					return errors.New("producer failed")
				case "panic":
					panic("producer panicked")
				}
				<-ctx.Done()
				return ctx.Err()
			}
			ownerCtx, cancelOwner := context.WithCancel(context.Background())
			defer cancelOwner()
			ownerErr := make(chan error, 1)
			go func() { ownerErr <- e.Run(ownerCtx, sharedCells("owner", make([]noJSON, 1), body)) }()
			<-inFlight
			outs := make([]noJSON, 4)
			readers := make(chan error, 1)
			go func() { readers <- e.Run(context.Background(), sharedCells("reader", outs, body)) }()
			awaitJoins(t, &e.table, false, 4)
			if mode == "cancel" {
				cancelOwner()
			}
			close(release)
			want := map[string]string{"error": "producer failed", "panic": "producer panicked", "cancel": "context canceled"}[mode]
			if err := <-ownerErr; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("owner returned %v, want %q", err, want)
			}
			if err := <-readers; err != nil {
				t.Fatalf("readers of a failed producer: %v", err)
			}
			if c := e.table.counts(false); c != (tableCounts{entries: 1, sims: 2, joins: 7}) {
				t.Fatalf("memoized results %+v; want the failed entry gone and one reader's result read by the other 3", c)
			}
			if e.MemoMisses() != 2 || e.MemoHits() != 3 {
				t.Fatalf("memo misses %d, hits %d; want 2 (owner, one reader) and 3", e.MemoMisses(), e.MemoHits())
			}
			for i, o := range outs {
				if o.V != 99 {
					t.Fatalf("reader[%d] holds %d, want 99", i, o.V)
				}
			}
			sameRows(t, cellRows(t, e), "reader[0]", "reader[1]", "reader[2]", "reader[3]")
		})
	}
}

// TestStorelessSuiteSharesResults: with no store, a serial pass still
// answers 73 of its 225 cells from results another cell produced (E3 14,
// E6 16, E7 28, E9 14, E11 1), and its rows — each cell's ID, memo flag and
// attribution — are the ones a pass over an in-memory store reported
// (digest of that pass's cell_timings, sorted by ID).
func TestStorelessSuiteSharesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	defer Configure(0, 0, false)
	e := Configure(1, 0, true)
	if _, err := All(); err != nil {
		t.Fatal(err)
	}
	if e.MemoHits() != 73 || e.MemoMisses() != 152 {
		t.Fatalf("memo hits %d, misses %d; want 73, 152", e.MemoHits(), e.MemoMisses())
	}
	ts := e.Timings()
	hits := map[string]int{}
	for _, ct := range ts {
		if ct.Memo {
			hits[strings.SplitN(ct.ID, "/", 2)[0]]++
		}
	}
	if want := map[string]int{"E3": 14, "E6": 16, "E7": 28, "E9": 14, "E11": 1}; !reflect.DeepEqual(hits, want) {
		t.Fatalf("hits by experiment %v, want %v", hits, want)
	}
	slices.SortFunc(ts, func(a, b CellTiming) int { return strings.Compare(a.ID, b.ID) })
	h := sha256.New()
	for _, ct := range ts {
		fmt.Fprintf(h, "%s %t %v\n", ct.ID, ct.Memo, ct.Attribution)
	}
	const want = "5e9ecb797a309ec0de05e1881cf179e522f153341c5f488a7f08a5f7fe75524c"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(ts) != 225 || got != want {
		t.Fatalf("%d rows, digest %s; want 225 rows, %s", len(ts), got, want)
	}
	cellRows(t, e)
}
