package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// indexedCells builds n cells named prefix[i] whose bodies call f(ctx, i).
func indexedCells(prefix string, n int, f func(ctx context.Context, i int) error) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{ID: fmt.Sprintf("%s[%d]", prefix, i), Fn: func(ctx context.Context) error {
			return f(ctx, i)
		}}
	}
	return cells
}

func TestEngineRunsEveryCell(t *testing.T) {
	e := &Engine{Workers: 4}
	var hits [100]atomic.Int32
	err := e.Run(context.Background(), indexedCells("cell", len(hits), func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
	if e.Cells() != 100 {
		t.Fatalf("Cells() = %d, want 100", e.Cells())
	}
}

func TestEngineErrorIsFirstInSubmissionOrder(t *testing.T) {
	// Whatever the interleaving, the reported error is the failing cell with
	// the lowest index (cells after a failure may be skipped, but a
	// lower-index failure can never be masked by a higher-index one).
	for _, workers := range []int{1, 8} {
		e := &Engine{Workers: workers}
		err := e.Run(context.Background(), indexedCells("c", 40, func(_ context.Context, i int) error {
			if i == 7 || i == 23 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		}))
		if err == nil || !strings.Contains(err.Error(), "boom 7") {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	// Every cell but 0 waits until cell 0 has cancelled, so no worker can
	// drain the whole batch before the cancellation lands.
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{Workers: 2}
	release := make(chan struct{})
	var ran, observed atomic.Int32
	err := e.Run(ctx, indexedCells("c", 50, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
			close(release)
			return ctx.Err()
		}
		<-release
		if ctx.Err() != nil {
			observed.Add(1)
		}
		return ctx.Err()
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if observed.Load() == 0 && ran.Load() == 50 {
		t.Fatal("no cell observed the cancellation or was skipped")
	}
}

func TestEngineTimeoutReachesCell(t *testing.T) {
	e := &Engine{Workers: 1, Timeout: time.Millisecond}
	err := e.Run(context.Background(), []Cell{{ID: "slow", Fn: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestEnginePanicBecomesError(t *testing.T) {
	e := &Engine{Workers: 2}
	err := e.Run(context.Background(), []Cell{{ID: "bad", Fn: func(context.Context) error {
		panic("kaboom")
	}}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

// TestEngineRejectsNestedRun: cells are flat, so Run given the context of
// a running cell fails instead of scheduling a cell inside a cell.
func TestEngineRejectsNestedRun(t *testing.T) {
	e := &Engine{Workers: 1}
	var inner error
	var innerRan bool
	err := e.Run(context.Background(), []Cell{{ID: "outer", Fn: func(ctx context.Context) error {
		inner = e.Run(ctx, []Cell{{ID: "inner", Fn: func(context.Context) error {
			innerRan = true
			return nil
		}}})
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if inner == nil || !strings.Contains(inner.Error(), "do not nest") {
		t.Fatalf("nested Run returned %v, want a cells-do-not-nest error", inner)
	}
	if innerRan || e.Cells() != 1 {
		t.Fatalf("inner cell ran = %v, cells = %d; want false, 1", innerRan, e.Cells())
	}
}

// TestEngineConcurrentSubmission drives one engine from several goroutines
// at once, each cell accounting cycles to its own meter for the engine to
// fold in, and is the designated -race exercise for the engine.
func TestEngineConcurrentSubmission(t *testing.T) {
	e := &Engine{Workers: 8, Record: true}
	const gs, cellsPer = 4, 50
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := e.Run(context.Background(), indexedCells(fmt.Sprintf("g%d", g), cellsPer, func(ctx context.Context, _ int) error {
				total.Add(1)
				account(ctx, 3, map[string]uint64{"execute": 3})
				return nil
			}))
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if total.Load() != gs*cellsPer {
		t.Fatalf("ran %d cells, want %d", total.Load(), gs*cellsPer)
	}
	if e.Cells() != gs*cellsPer {
		t.Fatalf("Cells() = %d, want %d", e.Cells(), gs*cellsPer)
	}
	if e.Cycles() != 3*gs*cellsPer || e.Attribution()["execute"] != 3*gs*cellsPer {
		t.Fatalf("Cycles() = %d, attribution %v, want %d", e.Cycles(), e.Attribution(), 3*gs*cellsPer)
	}
	if n := len(e.Timings()); n != gs*cellsPer {
		t.Fatalf("recorded %d timings, want %d", n, gs*cellsPer)
	}
}

// renderAll runs the full suite at the given parallelism and returns every
// table rendered to text.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	Configure(workers, 0, false)
	tables, err := All()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestAllDeterministicAcrossParallelism is the acceptance check that
// -parallel 1 and -parallel 8 produce byte-identical tables for every
// experiment.
func TestAllDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	defer Configure(0, 0, false)
	serial := renderAll(t, 1)
	parallel := renderAll(t, 8)
	if serial != parallel {
		t.Fatalf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
