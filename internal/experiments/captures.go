package experiments

// The engine's table of shared results. The evaluation reads the same runs
// from several angles — Table 1's shipped row, E3's condition statistics
// and E9's bandwidth read the same 14 shipped runs, E6 and E7 reuse the
// profiled reorganizer row, E7 and E11 reuse E3's VAX runs — so each is
// produced once per engine and every later reader takes it from here.
// Two kinds of entry share the table:
//
//   - a memoizable cell's result, under its memo key (engine.go): the
//     first reader replays it from the engine's store or runs the cell
//     live, and the others copy the value into their own slots;
//   - a capture, under "capture/" and its run key, a key no stored entry
//     uses: a benchmark's unprofiled run simulated once under the PC
//     profile and a branch recorder, with every check a plain run makes.
//     Table 1's profiled row reads its branches as a profile and E4 as a
//     predictor stream. Captures are inputs, like a synthesized trace, so
//     they are never stored or counted as memo lookups (DESIGN.md §10),
//     and a plain run reads one only if it exists: an explore sweep makes
//     none.
//
// An entry's producer runs under a private meter; every reader, the
// producer included, accounts the entry's cycles and attribution to its
// own cell. A reader that finds an entry in flight waits for it, and an
// entry whose producer fails leaves the table before its waiters wake, so
// they read again. The table lives as long as its engine.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// capturePrefix starts every capture's key.
const capturePrefix = "capture/"

// capture is one checked run of a benchmark's unprofiled image.
type capture struct {
	im     *asm.Image
	res    RunResult
	events []trace.BranchEvent
}

// entry is one shared result. done closes once it settles; val, cycles and
// attr are set only if its producer succeeded, and cycles and attr are what
// the producer accounted to its private meter.
type entry struct {
	done   chan struct{}
	val    any
	cycles uint64
	attr   map[string]uint64
}

// resultTable is an engine's shared results by key.
type resultTable struct {
	mu sync.Mutex
	m  map[string]*entry
	// n counts memoized results (n[0]) and captures (n[1]) apart: the
	// entries held, the entries produced and the readers that found one.
	// Tests observe the sharing through them, and a plain run skips its
	// key while the table holds no capture.
	n [2]tableCounts
}

// tableCounts is a snapshot of one kind's size and counters.
type tableCounts struct{ entries, sims, joins int }

// counts snapshots the captures' counters, or the memoized results'.
func (t *resultTable) counts(captures bool) tableCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n[boolBit(captures)]
}

// read returns key's value, accounted to the cell running under ctx. A
// missing entry is produced by this reader with produce, under a private
// meter, when produce is set, and returned as nil when not; fresh reports
// that this reader produced it. A value in flight is waited for.
func (t *resultTable) read(ctx context.Context, key string, produce func(context.Context) (any, error)) (val any, fresh bool, err error) {
	n := &t.n[boolBit(strings.HasPrefix(key, capturePrefix))]
	for {
		t.mu.Lock()
		en, found := t.m[key]
		switch {
		case found:
			n.joins++
		case produce != nil:
			en = &entry{done: make(chan struct{})}
			if t.m == nil {
				t.m = make(map[string]*entry)
			}
			t.m[key] = en
			n.entries++
			n.sims++
		}
		t.mu.Unlock()
		if !found {
			if produce == nil {
				return nil, false, nil
			}
			val, err := t.fill(ctx, key, en, n, produce)
			return val, true, err
		}
		select {
		case <-en.done:
			if en.val != nil {
				account(ctx, en.cycles, en.attr)
				return en.val, false, nil
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// fill produces en for the reader that entered it, through a private meter
// that it then accounts to that reader's cell (partial cycles included, as
// runMachine does on every exit path), and settles en. An entry whose
// producer errors, is cancelled or panics leaves the table before its
// waiters wake.
func (t *resultTable) fill(ctx context.Context, key string, en *entry, n *tableCounts, produce func(context.Context) (any, error)) (any, error) {
	defer func() {
		if en.val == nil {
			t.mu.Lock()
			delete(t.m, key)
			n.entries--
			t.mu.Unlock()
		}
		close(en.done)
	}()
	meter := cellMeter{table: t}
	val, err := produce(context.WithValue(ctx, meterKeyType{}, &meter))
	account(ctx, meter.cycles, meter.attr)
	if err != nil {
		return nil, err
	}
	en.val, en.cycles, en.attr = val, meter.cycles, meter.attr
	return val, nil
}

// captured returns the capture of b's unprofiled run under scheme on the
// machine the spec names, accounted to the cell running under ctx. A
// missing capture is simulated by this reader when enter is set; a plain
// run leaves it unset and gets nil, and then simulates the run itself.
func captured(ctx context.Context, b tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec, enter bool) (*capture, error) {
	t := meterFrom(ctx).table
	if !enter && t.counts(true).entries == 0 {
		return nil, nil
	}
	key, err := benchKey("run", b, scheme, ms)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	produce := func(ctx context.Context) (any, error) {
		var rec trace.Recorder
		im, res, err := simulate(ctx, b, scheme, nil, ms, &rec)
		if err != nil {
			return nil, err
		}
		return &capture{im, res, slices.Clip(rec.Branches)}, nil
	}
	if !enter {
		produce = nil
	}
	v, _, err := t.read(ctx, capturePrefix+key, produce)
	c, _ := v.(*capture)
	return c, err
}
