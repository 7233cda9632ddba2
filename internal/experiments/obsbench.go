package experiments

// Observation-overhead measurement: how much wall-clock the obs substrate
// costs at each level, against the same machine with no sink attached. The
// disabled path is the one the acceptance bar guards (a nil sink must stay
// within noise of the pre-obs simulator); the ledger and tracer numbers
// document what turning observation on costs.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// obsPairs is the number of interleaved off/on pairs timed per level, as
// perfbench times its ledger overhead.
const obsPairs = 9

// ObsOverhead records the wall-clock cost of each observation level over
// the same benchmark workload. Each level is timed as obsPairs off/on pairs
// whose order alternates; its overhead is the median of the per-pair
// percentages, with the quartiles beside it, so a small negative median
// reads as noise rather than a result.
type ObsOverhead struct {
	Benchmark  string `json:"benchmark"`
	Iterations int    `json:"iterations"`
	Pairs      int    `json:"pairs"`
	// BaselineMS is the median unobserved block over every pair; each
	// level's MS is the median of its observed blocks.
	BaselineMS float64 `json:"baseline_ms"`
	LedgerMS   float64 `json:"ledger_ms"`
	// WindowedMS times the ledger with a windowed ledger attached (16K-cycle
	// windows streamed to io.Discard) — the configuration a live-observed
	// long run pays for.
	WindowedMS float64 `json:"windowed_ms"`
	// TracerMS times the ledger plus the instruction-level tracer streaming
	// to io.Discard.
	TracerMS      float64 `json:"tracer_ms"`
	LedgerPct     float64 `json:"ledger_overhead_pct"`
	LedgerPctQ1   float64 `json:"ledger_overhead_pct_q1"`
	LedgerPctQ3   float64 `json:"ledger_overhead_pct_q3"`
	WindowedPct   float64 `json:"windowed_overhead_pct"`
	WindowedPctQ1 float64 `json:"windowed_overhead_pct_q1"`
	WindowedPctQ3 float64 `json:"windowed_overhead_pct_q3"`
	TracerPct     float64 `json:"tracer_overhead_pct"`
	TracerPctQ1   float64 `json:"tracer_overhead_pct_q1"`
	TracerPctQ3   float64 `json:"tracer_overhead_pct_q3"`
}

func (o *ObsOverhead) String() string {
	return fmt.Sprintf("obs overhead over %s ×%d, median of %d pairs [q1, q3]: baseline %.1fms, ledger %.1fms (%+.1f%% [%+.1f, %+.1f]), windowed %.1fms (%+.1f%% [%+.1f, %+.1f]), tracer %.1fms (%+.1f%% [%+.1f, %+.1f])",
		o.Benchmark, o.Iterations, o.Pairs, o.BaselineMS,
		o.LedgerMS, o.LedgerPct, o.LedgerPctQ1, o.LedgerPctQ3,
		o.WindowedMS, o.WindowedPct, o.WindowedPctQ1, o.WindowedPctQ3,
		o.TracerMS, o.TracerPct, o.TracerPctQ1, o.TracerPctQ3)
}

// MeasureObsOverhead times blocks of iters complete runs of the bubblesort
// benchmark at each observation level (ledger, windowed ledger, ledger plus
// streamed tracer) against unobserved blocks, in interleaved pairs.
// Machines are run directly — not through the engine — so memoization and
// the runner's automatic sink cannot short-circuit the measurement.
func MeasureObsOverhead(iters int) (*ObsOverhead, error) {
	if iters <= 0 {
		iters = 20
	}
	bench := tinyc.Benchmarks()[0] // bubblesort: branchy, memory-heavy
	im, err := buildCached(bench, reorg.Default())
	if err != nil {
		return nil, err
	}
	// block runs iters fresh machines under the sinks newSink returns (nil:
	// unobserved) and returns the wall time in ms. A tracer streams to
	// io.Discard and is closed inside the timed block.
	block := func(newSink func() *obs.Sink) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			m := core.New(spec.Default(), nil)
			var tr *obs.Tracer
			if newSink != nil {
				s := newSink()
				if tr = s.Tracer; tr != nil {
					if err := tr.StartStream(io.Discard, 0); err != nil {
						return 0, err
					}
				}
				m.Observe(s)
			}
			m.Load(im)
			if _, err := m.Run(runLimit); err != nil {
				return 0, err
			}
			if tr != nil {
				if err := tr.CloseStream(); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(start)) / 1e6, nil
	}
	var offs []float64
	// level times obsPairs off/on pairs, the off block first in even pairs,
	// and returns the median on block and the per-pair overhead quartiles.
	level := func(newSink func() *obs.Sink) (on float64, pct [3]float64, err error) {
		var ons, pcts []float64
		for i := 0; i < obsPairs; i++ {
			var ms [2]float64 // off, on
			for j := 0; j < 2; j++ {
				k := (i + j) % 2
				if k == 0 {
					ms[k], err = block(nil)
				} else {
					ms[k], err = block(newSink)
				}
				if err != nil {
					return 0, pct, err
				}
			}
			offs = append(offs, ms[0])
			ons = append(ons, ms[1])
			pcts = append(pcts, 100*(ms[1]/ms[0]-1))
		}
		return quartiles(ons)[1], quartiles(pcts), nil
	}
	o := &ObsOverhead{Benchmark: bench.Name, Iterations: iters, Pairs: obsPairs}
	var q [3]float64
	if o.LedgerMS, q, err = level(obs.NewMachineSink); err != nil {
		return nil, err
	}
	o.LedgerPctQ1, o.LedgerPct, o.LedgerPctQ3 = q[0], q[1], q[2]
	if o.WindowedMS, q, err = level(func() *obs.Sink {
		s := obs.NewMachineSink()
		win := obs.NewWindowedLedger(obs.MachineCauseNames, 16384)
		win.OnWindow(func(*obs.Window) error { return nil })
		s.Ledger.AttachWindows(win)
		return s
	}); err != nil {
		return nil, err
	}
	o.WindowedPctQ1, o.WindowedPct, o.WindowedPctQ3 = q[0], q[1], q[2]
	if o.TracerMS, q, err = level(func() *obs.Sink {
		s := obs.NewMachineSink()
		s.Tracer = &obs.Tracer{Instrs: true}
		return s
	}); err != nil {
		return nil, err
	}
	o.TracerPctQ1, o.TracerPct, o.TracerPctQ3 = q[0], q[1], q[2]
	o.BaselineMS = quartiles(offs)[1]
	return o, nil
}

// quartiles returns the three cut points of xs, computed the way Python's
// statistics.quantiles(xs, n=4) does by default (perfbench reports its
// quartiles the same way). xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
