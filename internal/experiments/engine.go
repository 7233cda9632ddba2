package experiments

// The experiment engine: every experiment's independent work is expressed
// as a Cell and fanned out across a worker pool, with deterministic result
// assembly. Cells write their results into caller-owned, index-distinct
// slots; all aggregation (sums, geometric means, table rows) happens after
// the fan-in, in submission order — so the rendered tables are
// byte-identical at any parallelism, which the determinism test and
// `mipsx-bench -check` both enforce.
//
// Cells are flat: each is one leaf simulation (a benchmark run, a trace
// sweep, a cluster size), and no cell body calls Run — an experiment
// submits all of its cells in one Run and folds the results itself. Each
// cell accounts its simulated cycles to its own meter, and the engine that
// ran it folds the meter's total into its counters when the cell returns.
// A run several cells read (a capture) is simulated once, and each reader
// accounts its cycles as a memo hit does.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Cell is one independent unit of experiment work. Fn must confine its
// mutable state to the cell (its own machines, memories, caches, trace
// sinks) and may share only read-only inputs with other cells.
type Cell struct {
	ID string
	Fn func(ctx context.Context) error
	// Memo, when set, makes the cell content-addressable: the engine
	// consults its store before running Fn and replays a recorded result
	// instead when the key hits.
	Memo *CellMemo
}

// CellMemo is a cell's memoization contract. The runner that builds the
// cell owns the key (only it knows the cell's full input closure); the
// engine owns lookup, replay and recording, and the JSON encoding of Out.
type CellMemo struct {
	// Key returns the content hash of the cell's full input closure (see
	// memo.go for the closure rule). An error means the closure could not
	// be computed (e.g. the program failed to build); the cell then runs
	// live and surfaces the error itself.
	Key func() (string, error)
	// Out points at the cell's result slot: after a live run the engine
	// records its JSON encoding under the key, and on a hit it decodes the
	// recorded result into it instead of running Fn.
	Out any
}

// CellTiming records one scheduled cell for the bench report.
type CellTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"err,omitempty"`
	// Memo marks a cell replayed from the content-addressed cache.
	Memo bool `json:"memo,omitempty"`
	// Skipped marks a cell claimed after a cancellation (another cell's
	// failure, a timeout, or the caller's ctx); it never ran.
	Skipped bool `json:"skipped,omitempty"`
	// Attribution decomposes the cell's simulated cycles by cause (the
	// obs ledger's cause names). Replayed cells carry the attribution their
	// live run recorded, byte-identical. JSON maps marshal with sorted keys,
	// so the field is deterministic.
	Attribution map[string]uint64 `json:"attribution,omitempty"`
}

// cellMeter holds the simulated cycles, and their per-cause breakdown, that
// one cell's runs accounted. Only the cell's own goroutine touches it: the
// runners add to it, and the engine reads it after the cell returns. Next
// to it the cell's runners find the engine's capture table.
type cellMeter struct {
	cycles uint64
	attr   map[string]uint64
	caps   *captureTable
}

type meterKeyType struct{}

func meterFrom(ctx context.Context) *cellMeter {
	m, _ := ctx.Value(meterKeyType{}).(*cellMeter)
	return m
}

// account charges a finished run's simulated cycles and their per-cause
// breakdown (an obs ledger's Map, summing to cycles) to the cell running
// under ctx. Outside a cell it does nothing.
func account(ctx context.Context, cycles uint64, attr map[string]uint64) {
	m := meterFrom(ctx)
	if m == nil {
		return
	}
	m.cycles += cycles
	for k, v := range attr {
		if m.attr == nil {
			m.attr = make(map[string]uint64, len(attr))
		}
		m.attr[k] += v
	}
}

// Engine schedules cells across a worker pool.
type Engine struct {
	// Workers bounds concurrently running cells per Run call; ≤0 means
	// GOMAXPROCS.
	Workers int
	// Timeout is the per-cell wall-clock budget (0 = none). Cell bodies
	// built from the runners in this package observe it between simulation
	// chunks.
	Timeout time.Duration
	// Record keeps per-cell timings for the bench report. Off by default so
	// long-lived default engines (tests, benchmarks) don't grow without
	// bound.
	Record bool
	// Store, when non-nil, enables content-addressed memoization for cells
	// that carry a Memo contract.
	Store *MemoStore
	// Progress, when non-nil, receives one-line progress updates (cells
	// done/submitted, memo hit rate, cells/sec) as cells complete, at most
	// one every progressEvery.
	Progress io.Writer

	cells     atomic.Uint64 // cells executed or replayed
	cycles    atomic.Uint64 // simulated machine cycles, folded in from the cells
	submitted atomic.Uint64 // cells handed to Run since construction
	started   atomic.Int64  // first-submission wall clock (UnixNano), for cells/sec
	lastProg  atomic.Int64  // last progress line's wall clock (UnixNano)

	// Memo lookup outcomes are engine-owned (not read off the store): a hit
	// is a cell replayed from the store, a miss a memoizable cell that ran
	// live — including store-less runs, so a report's hit/miss/rate fields
	// are consistent with each other in every configuration.
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
	// Memo-store I/O failures: results the store could not record, and disk
	// entries that exist but are unreadable or mismatched (each also a miss).
	memoWriteErrors atomic.Uint64
	memoCorrupt     atomic.Uint64

	mu      sync.Mutex
	timings []CellTiming
	attr    map[string]uint64 // simulated cycles by cause, summed over all cells

	// caps holds the runs captured for their branches, shared by every cell
	// that reads one (captures.go).
	caps captureTable
}

// progressEvery throttles progress lines.
const progressEvery = 250 * time.Millisecond

// MemoHits and MemoMisses report memoizable-cell outcomes: replays from
// the store vs live runs (a store-less engine counts every memoizable cell
// as a miss — it had no chance to replay).
func (e *Engine) MemoHits() uint64   { return e.memoHits.Load() }
func (e *Engine) MemoMisses() uint64 { return e.memoMisses.Load() }

// MemoWriteErrors and MemoCorrupt report memo-store I/O failures: results
// that could not be recorded, and disk entries that failed to read, parse or
// match their key (each replaced by a live run).
func (e *Engine) MemoWriteErrors() uint64 { return e.memoWriteErrors.Load() }
func (e *Engine) MemoCorrupt() uint64     { return e.memoCorrupt.Load() }

// MemoHitRate is hits over all memoizable-cell lookups (0 when none ran).
func (e *Engine) MemoHitRate() float64 {
	h, m := e.memoHits.Load(), e.memoMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// FlushProgress forces out a final progress line (end-of-run summary),
// bypassing the throttle. No-op without a Progress writer.
func (e *Engine) FlushProgress() { e.reportProgress(true) }

// reportProgress emits a throttled one-line update after a cell completes
// (final forces the line out, for the end-of-run summary).
func (e *Engine) reportProgress(final bool) {
	if e.Progress == nil {
		return
	}
	now := time.Now().UnixNano()
	last := e.lastProg.Load()
	if !final && now-last < int64(progressEvery) {
		return
	}
	if !e.lastProg.CompareAndSwap(last, now) {
		return // another worker is printing this tick
	}
	done, total := e.cells.Load(), e.submitted.Load()
	var rate float64
	if start := e.started.Load(); start > 0 && now > start {
		rate = float64(done) / (float64(now-start) / 1e9)
	}
	if e.Store != nil {
		fmt.Fprintf(e.Progress, "cells %d/%d  memo hits %d (%.0f%%)  %.0f cells/s\n",
			done, total, e.MemoHits(), 100*e.MemoHitRate(), rate)
	} else {
		fmt.Fprintf(e.Progress, "cells %d/%d  %.0f cells/s\n", done, total, rate)
	}
}

// Run executes the cells and returns the first error in cell order (cells
// after a failure may be skipped). Results must be communicated through the
// cells' own slots; Run itself only schedules. Cells do not nest: a ctx
// that belongs to a running cell is an error.
func (e *Engine) Run(ctx context.Context, cells []Cell) error {
	if meterFrom(ctx) != nil {
		return errors.New("experiments: Run called from inside a cell (cells do not nest)")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if len(cells) == 0 {
		return nil
	}
	e.submitted.Add(uint64(len(cells)))
	e.started.CompareAndSwap(0, time.Now().UnixNano())

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(cells))
	timings := make([]CellTiming, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Claimed after a cancellation: the cell never ran.
					// Stamp the timing row with the cell's identity and a
					// skipped marker so the report carries no anonymous
					// zero-value entries.
					errs[i] = err
					timings[i] = CellTiming{ID: cells[i].ID, Err: "skipped: " + err.Error(), Skipped: true}
					continue
				}
				start := time.Now()
				replayed, attr, err := e.runOne(ctx, cells[i])
				e.cells.Add(1)
				timings[i] = CellTiming{ID: cells[i].ID, WallMS: float64(time.Since(start)) / 1e6,
					Memo: replayed, Attribution: attr}
				if err != nil {
					timings[i].Err = err.Error()
					errs[i] = err
					cancel()
				}
				e.reportProgress(false)
			}
		}()
	}
	wg.Wait()

	if e.Record {
		e.mu.Lock()
		e.timings = append(e.timings, timings...)
		e.mu.Unlock()
	}
	// First error in submission order that is not a cancellation, so the
	// root cause is reported deterministically at any parallelism: when a
	// cell fails, cancel() aborts still-running lower-index cells, and
	// their context.Canceled must not mask the error that triggered it
	// (cell errors arrive wrapped with the cell ID, so this must be
	// errors.Is, not sentinel equality). A cell's own deadline expiry is a
	// real failure; only cancellation marks a victim. Fall back to the
	// first cancellation when no cell failed for its own reason (the
	// caller cancelled the whole run).
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// runOne executes one cell: a content-addressed replay when the cell is
// memoizable and its key hits, a live run otherwise (recording the result
// on success). Either way the cell's simulated cycles and their
// attribution — live from its meter, replayed from the memo entry — fold
// into the engine, and attr returns the breakdown for the bench report's
// per-cell row.
func (e *Engine) runOne(ctx context.Context, c Cell) (replayed bool, attr map[string]uint64, err error) {
	memoizable := c.Memo != nil && c.Memo.Key != nil
	var key string
	if memoizable && e.Store != nil {
		k, kerr := c.Memo.Key()
		if kerr == nil {
			key = k
			entry, ok, gerr := e.Store.get(key)
			if gerr != nil {
				e.memoCorrupt.Add(1)
			}
			if ok {
				if json.Unmarshal(entry.Data, c.Memo.Out) == nil {
					// Replay: account the recorded simulated cycles and their
					// attribution exactly as the live run did.
					e.memoHits.Add(1)
					e.fold(entry.Cycles, entry.Attr)
					return true, entry.Attr, nil
				}
				// An undecodable entry is a corrupt miss; the live run
				// below overwrites it.
				e.memoCorrupt.Add(1)
			}
		}
		// A key error means the input closure itself could not be built
		// (e.g. compilation failed); the live run surfaces that error.
	}
	if memoizable {
		e.memoMisses.Add(1)
	}

	cctx := ctx
	ccancel := func() {}
	if e.Timeout > 0 {
		cctx, ccancel = context.WithTimeout(ctx, e.Timeout)
	}
	defer ccancel()
	meter := &cellMeter{caps: &e.caps}
	cctx = context.WithValue(cctx, meterKeyType{}, meter)

	err = runCell(cctx, c)
	e.fold(meter.cycles, meter.attr)
	if err != nil || key == "" {
		return false, meter.attr, err
	}
	data, serr := json.Marshal(c.Memo.Out)
	if serr == nil {
		serr = e.Store.put(memoEntry{Schema: memoSchema, Key: key, CellID: c.ID,
			Cycles: meter.cycles, Attr: meter.attr, Data: data})
	}
	if serr != nil {
		e.memoWriteErrors.Add(1)
	}
	return false, meter.attr, nil
}

// fold accounts one cell's simulated cycles and their per-cause breakdown
// against the engine.
func (e *Engine) fold(cycles uint64, attr map[string]uint64) {
	e.cycles.Add(cycles)
	if len(attr) == 0 {
		return
	}
	e.mu.Lock()
	if e.attr == nil {
		e.attr = make(map[string]uint64, len(attr))
	}
	for k, v := range attr {
		e.attr[k] += v
	}
	e.mu.Unlock()
}

// runCell isolates a cell panic into an error so one bad cell cannot take
// down the whole table run with a goroutine crash.
func runCell(ctx context.Context, c Cell) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %s panicked: %v", c.ID, r)
		}
	}()
	if err := c.Fn(ctx); err != nil {
		return fmt.Errorf("%s: %w", c.ID, err)
	}
	return nil
}

// Attribution returns a copy of the engine-wide per-cause cycle breakdown.
// Every runner accounts a run's cycles together with their breakdown, so
// the values sum to Cycles() — the bench report checks exactly that.
func (e *Engine) Attribution() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64, len(e.attr))
	for k, v := range e.attr {
		out[k] = v
	}
	return out
}

// Cells returns the number of cells executed since construction.
func (e *Engine) Cells() uint64 { return e.cells.Load() }

// Cycles returns the simulated cycles accounted since construction.
func (e *Engine) Cycles() uint64 { return e.cycles.Load() }

// Timings returns a copy of the recorded per-cell timings (empty unless
// Record is set).
func (e *Engine) Timings() []CellTiming {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]CellTiming, len(e.timings))
	copy(out, e.timings)
	return out
}

// ---------------------------------------------------------------------------
// Package defaults: experiment functions keep their zero-argument signatures
// (bench_test.go, the shape tests and cmd/mipsx-bench all call them), so the
// engine they use is installed package-wide.

var defaultEngine atomic.Pointer[Engine]

func init() { defaultEngine.Store(&Engine{}) }

// Configure installs a fresh default engine with the given settings and
// returns it. workers ≤ 0 means GOMAXPROCS; Record controls timing capture.
func Configure(workers int, timeout time.Duration, record bool) *Engine {
	e := &Engine{Workers: workers, Timeout: timeout, Record: record}
	defaultEngine.Store(e)
	return e
}

// DefaultEngine returns the engine experiment functions currently use.
func DefaultEngine() *Engine { return defaultEngine.Load() }
