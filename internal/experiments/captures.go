package experiments

// The capture table. Three readings of the paper's branch studies observe
// one run: Table 1's shipped-scheme row reads its statistics, the
// "reorganizer with profiling" row reads its branches as a profile, and E4
// reads them as a predictor stream. A capture is that run simulated once —
// under the PC profile and a branch recorder, with every check a plain run
// makes — and kept by the engine for the readers that follow.
//
// Only captured identities enter the table: runProfiled and E4's
// suiteBranches capture, and a plain unprofiled run merely reads a capture
// that exists, so an explore sweep (no profiled cells) keeps the table
// empty. The table lives as long as its engine and is never stored: a
// capture is an input, like a synthesized trace (DESIGN.md §10).

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/asm"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// capture is one checked run of a benchmark's unprofiled image. done closes
// once it settles; the other fields are set, and ok true, only if it
// succeeded.
type capture struct {
	done chan struct{}
	ok   bool

	im     *asm.Image
	res    RunResult
	events []trace.BranchEvent
	// cycles and attr are what the simulation accounted to its private
	// meter; every reader accounts them to its own cell.
	cycles uint64
	attr   map[string]uint64
}

// captureTable is an engine's captures, keyed by the run's closure as
// benchKey hashes it. sims counts the simulations its readers started, and
// joins the readers that found a capture already there; tests observe the
// sharing through them.
type captureTable struct {
	mu          sync.Mutex
	m           map[string]*capture
	sims, joins int
}

// captured returns the capture of benchmark b's unprofiled run under scheme
// on the machine the spec names, simulating it if no reader has, and
// accounts its cycles and attribution to the cell running under ctx.
func captured(ctx context.Context, b tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) (*capture, error) {
	key, err := benchKey("run", b, scheme, ms)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return meterFrom(ctx).caps.read(ctx, key, true, b, scheme, ms)
}

// shared returns the capture of a plain run's identity if the table holds
// one, accounted to the cell running under ctx; nil means there is none
// and the caller simulates the run itself.
func (t *captureTable) shared(ctx context.Context, b tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) (*capture, error) {
	if t.counts().entries == 0 {
		return nil, nil
	}
	key, err := benchKey("run", b, scheme, ms)
	if err != nil {
		return nil, nil // the caller's own build surfaces the error
	}
	return t.read(ctx, key, false, b, scheme, ms)
}

// read returns key's capture, accounted to the cell running under ctx. A
// capture in flight is waited for; one that fails has left the table by
// the time its waiters wake, so they read again. A missing capture is
// simulated by this reader when enter is set, and returned as nil when not.
func (t *captureTable) read(ctx context.Context, key string, enter bool, b tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) (*capture, error) {
	for {
		t.mu.Lock()
		c, found := t.m[key]
		switch {
		case found:
			t.joins++
		case enter:
			c = &capture{done: make(chan struct{})}
			if t.m == nil {
				t.m = make(map[string]*capture)
			}
			t.m[key] = c
			t.sims++
		}
		t.mu.Unlock()
		if !found {
			if !enter {
				return nil, nil
			}
			if err := t.fill(ctx, key, c, b, scheme, ms); err != nil {
				return nil, err
			}
			return c, nil
		}
		select {
		case <-c.done:
			if c.ok {
				account(ctx, c.cycles, c.attr)
				return c, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill simulates c for the reader that entered it, through a private
// meter that it then accounts to that reader's cell (partial cycles
// included, as runMachine does on every exit path), and settles c. A
// capture that errors, is cancelled or panics leaves the table before its
// waiters wake.
func (t *captureTable) fill(ctx context.Context, key string, c *capture, b tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) error {
	defer func() {
		if !c.ok {
			t.mu.Lock()
			delete(t.m, key)
			t.mu.Unlock()
		}
		close(c.done)
	}()
	var meter cellMeter
	var rec trace.Recorder
	im, res, err := simulate(context.WithValue(ctx, meterKeyType{}, &meter), b, scheme, nil, ms, &rec)
	account(ctx, meter.cycles, meter.attr)
	if err != nil {
		return err
	}
	c.im, c.res, c.events = im, res, slices.Clip(rec.Branches)
	c.cycles, c.attr = meter.cycles, meter.attr
	c.ok = true
	return nil
}

// tableCounts is a snapshot of a capture table's size and counters.
type tableCounts struct{ entries, sims, joins int }

// counts snapshots the table.
func (t *captureTable) counts() tableCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tableCounts{len(t.m), t.sims, t.joins}
}
