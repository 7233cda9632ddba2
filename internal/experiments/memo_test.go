package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsondoc"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// TestEngineRootCauseNotMaskedByCancellation: a failing cell cancels no
// other cell. A lower-index cell still running when a higher-index cell
// fails is not cancelled and completes, and the reported error is the
// failing cell's, the first in submission order.
func TestEngineRootCauseNotMaskedByCancellation(t *testing.T) {
	// The engine writes its first progress line once it has recorded the
	// culprit's failure (the victim is still running, so nothing else has
	// completed).
	settled := &closeOnWrite{ch: make(chan struct{})}
	e := &Engine{Workers: 2, Progress: settled}
	var completed atomic.Bool
	cells := []Cell{
		// Slow low-index cell: runs until the engine has seen the failure.
		{ID: "victim", Fn: func(ctx context.Context) error {
			select {
			case <-ctx.Done():
			case <-settled.ch:
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			completed.Store(true)
			return nil
		}},
		// Fast high-index cell: the real failure.
		{ID: "culprit", Fn: func(ctx context.Context) error {
			return errors.New("boom")
		}},
	}
	err := e.Run(context.Background(), cells)
	if err == nil || !strings.Contains(err.Error(), "boom") || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the culprit's boom", err)
	}
	if !completed.Load() || e.Cells() != 2 {
		t.Fatalf("victim completed = %v, cells run = %d; want true, 2 (a failure cancels no other cell)", completed.Load(), e.Cells())
	}
}

// closeOnWrite closes ch on its first write.
type closeOnWrite struct {
	once sync.Once
	ch   chan struct{}
}

func (w *closeOnWrite) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.ch) })
	return len(p), nil
}

// TestRunMachineFaultIsNotATimeout is the regression test for the fault
// handling bug: a machine whose PC runs off the end of its image must be
// reported as a fault immediately, not simulated to the 50M-cycle budget and
// then reported as a bogus "no halt" timeout.
func TestRunMachineFaultIsNotATimeout(t *testing.T) {
	// No halt: execution falls off the end of the image.
	const runaway = `
main:	add r1, r0, r0
	nop
`
	start := time.Now()
	_, err := runAsm(context.Background(), runaway, spec.Default())
	if err == nil {
		t.Fatal("runaway program reported success")
	}
	if !strings.Contains(err.Error(), "outside the loaded image") {
		t.Fatalf("err = %v, want a runaway-PC fault", err)
	}
	if strings.Contains(err.Error(), "no halt within") {
		t.Fatalf("err = %v: fault surfaced as the cycle-budget timeout", err)
	}
	// The fault fires within one chunk of the image end, not after the full
	// 50M-cycle budget (generous wall-clock bound; the real signal is above).
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("fault took %v, looks like the full budget was burned", d)
	}
}

// TestEngineSkippedCellsAreStamped is the regression test for the timing
// report bug: cells claimed after a cancellation never run, but their timing
// rows must still carry the cell's identity and a skipped marker instead of
// anonymous zero values.
func TestEngineSkippedCellsAreStamped(t *testing.T) {
	e := &Engine{Workers: 1, Record: true}
	cells := []Cell{
		{ID: "fail", Fn: func(context.Context) error { return errors.New("boom") }},
		{ID: "after-0", Fn: func(context.Context) error { return nil }},
		{ID: "after-1", Fn: func(context.Context) error { return nil }},
	}
	err := e.Run(context.Background(), cells)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	timings := e.Timings()
	if len(timings) != len(cells) {
		t.Fatalf("recorded %d timings, want %d", len(timings), len(cells))
	}
	skipped := 0
	for _, ct := range timings {
		if ct.ID == "" {
			t.Fatalf("anonymous timing row: %+v", ct)
		}
		if ct.Skipped {
			skipped++
			if !strings.HasPrefix(ct.Err, "skipped:") {
				t.Fatalf("skipped cell %s has err %q, want skipped: prefix", ct.ID, ct.Err)
			}
		}
	}
	// Workers=1 guarantees the two cells after the failure are claimed only
	// once the run is cancelled.
	if skipped != 2 {
		t.Fatalf("skipped = %d timing rows, want 2", skipped)
	}
}

// TestMemoColdThenHotDeterministic is the memoization acceptance test: the
// full suite rendered with a cold on-disk cache and again (fresh engine,
// fresh store, same directory) with the cache hot must produce byte-identical
// tables and identical simulated-cycle totals, with a nonzero hit count on
// the hot pass.
func TestMemoColdThenHotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	defer Configure(0, 0, false)
	dir := t.TempDir()

	render := func() (string, *Engine) {
		e := Configure(0, 0, false)
		store, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.Store = store
		tables, err := All()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.String())
			sb.WriteString("\n")
		}
		return sb.String(), e
	}

	cold, coldEng := render()
	hot, hotEng := render()
	if cold != hot {
		t.Fatalf("tables differ between cold and hot cache:\n--- cold ---\n%s\n--- hot ---\n%s", cold, hot)
	}
	if hotEng.MemoHits() == 0 {
		t.Fatal("hot pass recorded zero memo hits")
	}
	if coldEng.Cycles() != hotEng.Cycles() {
		t.Fatalf("total simulated cycles differ: cold %d, hot %d", coldEng.Cycles(), hotEng.Cycles())
	}
}

// TestMemoKeysCoverTheClosure checks that every input in a cell's closure
// changes its key: two cells may share a key only when their full input
// closures are identical.
func TestMemoKeysCoverTheClosure(t *testing.T) {
	b := tinyc.Benchmarks()[0]
	base := spec.Default()
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s and %s hash identically", prev, name)
		}
		seen[key] = name
	}
	mustKey := func(name, kind string, bench tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) {
		k, err := benchKey(kind, bench, scheme, ms)
		if err != nil {
			t.Fatal(err)
		}
		add(name, k)
	}
	mustKey("run/default", "run", b, reorg.Default(), base)
	mustKey("profiled/default", "run-profiled", b, reorg.Default(), base)
	mustKey("run/1-slot", "run", b, reorg.Scheme{Slots: 1, Squash: reorg.SquashOptional}, base)

	// Spec changes change the key (the digest covers every spec field; the
	// field-coverage guard in internal/spec proves the digest covers every
	// architectural core.Config field).
	nofpu := base
	nofpu.NoFPU = true
	mustKey("run/nofpu", "run", b, reorg.Default(), nofpu)
	smallIC := base
	smallIC.ICache.Sets = 8
	mustKey("run/icache-sets", "run", b, reorg.Default(), smallIC)
	fifo := base
	fifo.ECache.Repl = spec.ReplFIFO
	mustKey("run/ecache-fifo", "run", b, reorg.Default(), fifo)

	// Different benchmarks never share a key.
	mustKey("run/other-bench", "run", tinyc.Benchmarks()[1], reorg.Default(), base)

	// Non-bench kinds: the vax closure is (source, instruction bound).
	add("vax/a", newKey("vax").str("source", "x").num("max-instr", 100).sum())
	add("vax/b", newKey("vax").str("source", "y").num("max-instr", 100).sum())
	add("vax/c", newKey("vax").str("source", "x").num("max-instr", 200).sum())

	// Framing: adjacent fields must not alias under reslicing.
	add("frame/a", newKey("t").str("p", "ab").str("q", "c").sum())
	add("frame/b", newKey("t").str("p", "a").str("q", "bc").sum())
}

// TestMemoStoreDiskRoundTrip checks the on-disk format: a fresh store over
// the same directory replays an entry recorded by another store, and an
// absent key is a plain miss, not an error.
func TestMemoStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.put(memoEntry{Schema: memoSchema, Key: "k1", CellID: "c", Cycles: 42, Data: []byte(`{"v":1}`)}); err != nil {
		t.Fatal(err)
	}

	s2, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := s2.get("k1")
	if !ok || err != nil {
		t.Fatalf("fresh store missed an entry recorded on disk (err %v)", err)
	}
	if e.Cycles != 42 || string(e.Data) != `{"v":1}` {
		t.Fatalf("entry = %+v, want cycles 42 and recorded data", e)
	}
	if _, ok, err := s2.get("absent"); ok || err != nil {
		t.Fatalf("absent key: ok %v err %v, want a plain miss", ok, err)
	}
}

// memoCellKey is the key memoCell records under.
var memoCellKey = newKey("test").str("id", "memoized").sum()

// memoCell is a memoizable cell that sets *out to 99 and charges 7 cycles,
// counting its live runs.
func memoCell(out *int, runs *atomic.Int32) Cell {
	return Cell{
		ID: "memoized",
		Fn: func(ctx context.Context) error {
			runs.Add(1)
			account(ctx, 7, nil)
			*out = 99
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) { return memoCellKey, nil },
			Out: out,
		},
	}
}

// runMemoCell runs memoCell once on a fresh engine over store and returns
// the engine; the cell must produce its result either way.
func runMemoCell(t *testing.T, store *MemoStore, runs *atomic.Int32) *Engine {
	t.Helper()
	e := &Engine{Store: store}
	var got int
	if err := e.Run(context.Background(), []Cell{memoCell(&got, runs)}); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("result = %d, want 99", got)
	}
	return e
}

// TestMemoStoreWriteErrorsAreCounted: a store that cannot record a result
// must say so — put returns the error, the engine counts it into the bench
// document, and a failed rename leaves no .tmp file behind.
func TestMemoStoreWriteErrorsAreCounted(t *testing.T) {
	cases := []struct {
		name    string
		corrupt uint64 // the blocker also reads as a corrupt entry
		block   func(t *testing.T, dir string)
	}{
		{"read-only dir", 0, func(t *testing.T, dir string) {
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o755) })
			if f, err := os.Create(filepath.Join(dir, "probe")); err == nil {
				f.Close()
				t.Skip("this process can write a read-only directory")
			}
		}},
		{"rename blocked", 1, func(t *testing.T, dir string) {
			// A non-empty directory where the entry belongs: the lookup
			// cannot read it, the temporary file writes, the rename over it
			// fails.
			if err := os.MkdirAll(filepath.Join(dir, memoCellKey+".json", "x"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewMemoStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.block(t, dir)
			var runs atomic.Int32
			e := runMemoCell(t, store, &runs)
			if e.MemoWriteErrors() != 1 || e.MemoCorrupt() != tc.corrupt {
				t.Fatalf("write errors %d, corrupt %d; want 1, %d", e.MemoWriteErrors(), e.MemoCorrupt(), tc.corrupt)
			}
			if doc := NewBenchDoc(nil, nil, 0, 1, false, false, e); doc.MemoWriteErrors != 1 {
				t.Fatalf("bench doc memo_write_errors = %d, want 1", doc.MemoWriteErrors)
			}
			if _, err := os.Stat(filepath.Join(dir, memoCellKey+".json.tmp")); !os.IsNotExist(err) {
				t.Fatalf("temporary entry left behind (stat err %v)", err)
			}
		})
	}
}

// TestMemoStoreCorruptEntryIsReportedMiss: a garbage <key>.json is a miss
// the engine reports as corrupt; the live run overwrites it, so the next
// store replays cleanly. Healthy documents carry neither counter.
func TestMemoStoreCorruptEntryIsReportedMiss(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, memoCellKey+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	for pass, wantCorrupt := range []uint64{1, 0} {
		store, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := runMemoCell(t, store, &runs)
		if e.MemoCorrupt() != wantCorrupt || e.MemoWriteErrors() != 0 {
			t.Fatalf("pass %d: corrupt %d, write errors %d; want %d, 0", pass, e.MemoCorrupt(), e.MemoWriteErrors(), wantCorrupt)
		}
		doc := NewBenchDoc(nil, nil, 0, 1, false, false, e)
		b, err := jsondoc.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if has := strings.Contains(string(b), `"memo_corrupt"`); has != (wantCorrupt != 0) {
			t.Fatalf("pass %d: memo_corrupt in document = %v, want %v", pass, has, wantCorrupt != 0)
		}
		if strings.Contains(string(b), `"memo_write_errors"`) {
			t.Fatalf("pass %d: memo_write_errors in a healthy document", pass)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("cell body ran %d times, want 1 (corrupt miss, then replay)", runs.Load())
	}
}

// TestEngineReplaySkipsCellBody checks the engine-level contract directly:
// a memoized cell's Fn runs once; a second engine over the same store
// directory replays without running Fn, and the replay restores both the
// result slot and the recorded cycle attribution.
func TestEngineReplaySkipsCellBody(t *testing.T) {
	store, err := NewMemoStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	for pass := 0; pass < 2; pass++ {
		e := runMemoCell(t, store, &runs)
		if e.Cycles() != 7 {
			t.Fatalf("pass %d: cycles = %d, want 7 (replay must restore attribution)", pass, e.Cycles())
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("cell body ran %d times, want 1 (second pass must replay)", runs.Load())
	}
}
