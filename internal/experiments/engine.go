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
// A result several cells read — a memoizable cell's, or a capture — is
// produced once per engine in its table (captures.go), and each reader
// accounts its cycles and attribution to its own cell.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
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
	// Memo, when set, makes the cell content-addressable: the engine reads
	// its result through the engine's table by key, and runs Fn only if no
	// other cell has produced it and the store does not hold it.
	Memo *CellMemo
}

// CellMemo is a cell's memoization contract. The runner that builds the
// cell owns the key (only it knows the cell's full input closure); the
// engine owns sharing, replay and recording, and the JSON encoding of Out
// in the store.
type CellMemo struct {
	// Key returns the content hash of the cell's full input closure (see
	// memo.go for the closure rule); it is required. Keys name the cell's
	// kind, so cells that share a key share Out's type. An error means the
	// closure could not be computed (e.g. the program failed to build); the
	// cell then runs live and surfaces the error itself.
	Key func() (string, error)
	// Out points at the cell's result slot. A cell that reads another's
	// result gets a copy of that cell's *Out; with a store, a live run's
	// result is recorded as JSON under the key, and a stored one is decoded
	// into Out instead of running Fn.
	Out any
}

// CellTiming records one scheduled cell for the bench report.
type CellTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"err,omitempty"`
	// Memo marks a memoizable cell whose body did not run: it read the
	// result another cell produced in this engine, or one replayed from the
	// store.
	Memo bool `json:"memo,omitempty"`
	// Skipped marks a cell that never ran: it was claimed after the
	// caller's ctx was done, or after a cell before it failed.
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
// to it the cell's runners find the engine's table of shared results.
type cellMeter struct {
	cycles uint64
	attr   map[string]uint64
	table  *resultTable
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
	// Store, when non-nil, persists memoizable cells' results across
	// processes: the producer of a table entry replays it from the store
	// when present and records it there after a live run. Sharing within
	// the engine needs no store.
	Store *MemoStore
	// Progress, when non-nil, receives one-line progress updates (cells
	// done/submitted, memo hits of lookups, cells/sec) as cells complete, at
	// most one every progressEvery.
	Progress io.Writer

	cells     atomic.Uint64 // cells executed or replayed
	cycles    atomic.Uint64 // simulated machine cycles, folded in from the cells
	submitted atomic.Uint64 // cells handed to Run since construction
	started   atomic.Int64  // first-submission wall clock (UnixNano), for cells/sec
	lastProg  atomic.Int64  // last progress line's wall clock (UnixNano)

	// Memo lookup outcomes: a hit is a memoizable cell whose body did not
	// run (it read a result from the table or the store), a miss one that
	// ran live.
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
	// Memo-store I/O failures: results the store could not record, and disk
	// entries that exist but are unreadable or mismatched (each also a miss).
	memoWriteErrors atomic.Uint64
	memoCorrupt     atomic.Uint64

	mu      sync.Mutex
	timings []CellTiming
	attr    map[string]uint64 // simulated cycles by cause, summed over all cells

	// table holds the results shared by every cell that reads one
	// (captures.go).
	table resultTable
}

// progressEvery throttles progress lines.
const progressEvery = 250 * time.Millisecond

// MemoHits and MemoMisses report memoizable-cell outcomes: results read
// from the table or replayed from the store vs live runs. A store-less
// engine shares the same results, so it counts the same hits as one over
// an empty store.
func (e *Engine) MemoHits() uint64   { return e.memoHits.Load() }
func (e *Engine) MemoMisses() uint64 { return e.memoMisses.Load() }

// MemoWriteErrors and MemoCorrupt report memo-store I/O failures: results
// that could not be recorded, and disk entries that failed to read, parse or
// match their key (each replaced by a live run).
func (e *Engine) MemoWriteErrors() uint64 { return e.memoWriteErrors.Load() }
func (e *Engine) MemoCorrupt() uint64     { return e.memoCorrupt.Load() }

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
	hits := e.MemoHits()
	fmt.Fprintf(e.Progress, "cells %d/%d  memo hits %d of %d  %.0f cells/s\n",
		done, total, hits, hits+e.MemoMisses(), rate)
}

// Run executes the cells and returns the first error in submission order.
// A failure cancels no other cell: every cell before the lowest failed one
// runs to completion, so that failure is the first error at any
// parallelism. A cell claimed once the caller's ctx is done, or after a
// cell before it has failed, is skipped; cells already running finish.
// Results must be communicated through the cells' own slots; Run itself
// only schedules. Cells do not nest: a ctx that belongs to a running cell
// is an error.
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

	errs := make([]error, len(cells))
	timings := make([]CellTiming, len(cells))
	var next atomic.Int64
	// failed is the lowest index of a failed cell, len(cells) while none has.
	var failed atomic.Int64
	failed.Store(int64(len(cells)))
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
				err := ctx.Err()
				if f := failed.Load(); err == nil && int64(i) > f {
					err = fmt.Errorf("cell %s failed", cells[f].ID)
				}
				if err != nil {
					// The cell never runs. Stamp the timing row with its
					// identity and a skipped marker so the report carries
					// no anonymous zero-value entries.
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
					for f := failed.Load(); int64(i) < f; f = failed.Load() {
						if failed.CompareAndSwap(f, int64(i)) {
							break
						}
					}
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runOne executes one cell: a memoizable cell reads its result through the
// engine's table (readMemo), any other runs live. Either way the cell's
// simulated cycles and their attribution fold into the engine, and attr
// returns the breakdown for the bench report's per-cell row.
func (e *Engine) runOne(ctx context.Context, c Cell) (replayed bool, attr map[string]uint64, err error) {
	if e.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Timeout)
		defer cancel()
	}
	meter := &cellMeter{table: &e.table}
	ctx = context.WithValue(ctx, meterKeyType{}, meter)
	if c.Memo == nil {
		err = runCell(ctx, c)
	} else if replayed, err = e.readMemo(ctx, c); replayed {
		e.memoHits.Add(1)
	} else {
		e.memoMisses.Add(1)
	}
	e.fold(meter.cycles, meter.attr)
	return replayed, meter.attr, err
}

// readMemo reads cell c's result through the table by its memo key
// (captures.go). The first reader produces it; every later reader copies
// the producer's value into its own slot, with no JSON round trip.
// replayed reports that c's body did not run. A cell whose key cannot be
// computed (its program failed to build) runs live outside the table and
// surfaces the error itself.
func (e *Engine) readMemo(ctx context.Context, c Cell) (replayed bool, err error) {
	key, err := c.Memo.Key()
	if err != nil {
		return false, runCell(ctx, c)
	}
	val, fresh, err := e.table.read(ctx, key, func(ctx context.Context) (any, error) {
		replayed, err = e.produce(ctx, c, key)
		return c.Memo.Out, err
	})
	if err != nil || fresh {
		return replayed, err
	}
	reflect.ValueOf(c.Memo.Out).Elem().Set(reflect.ValueOf(val).Elem())
	return true, nil
}

// produce makes key's entry for cell c: replayed from the store when it
// holds the key, otherwise c run live and, with a store, its result
// recorded there. stored reports a replay.
func (e *Engine) produce(ctx context.Context, c Cell, key string) (stored bool, err error) {
	if e.Store != nil {
		rec, ok, gerr := e.Store.get(key)
		if gerr != nil {
			e.memoCorrupt.Add(1)
		}
		if ok {
			if json.Unmarshal(rec.Data, c.Memo.Out) == nil {
				// Replay: account the recorded simulated cycles and their
				// attribution exactly as the live run did.
				account(ctx, rec.Cycles, rec.Attr)
				return true, nil
			}
			// An undecodable entry is a corrupt miss; the live run below
			// overwrites it.
			e.memoCorrupt.Add(1)
		}
	}
	if err := runCell(ctx, c); err != nil || e.Store == nil {
		return false, err
	}
	m := meterFrom(ctx)
	data, err := json.Marshal(c.Memo.Out)
	if err == nil {
		err = e.Store.put(memoEntry{Schema: memoSchema, Key: key, CellID: c.ID,
			Cycles: m.cycles, Attr: m.attr, Data: data})
	}
	if err != nil {
		e.memoWriteErrors.Add(1)
	}
	return false, nil
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
