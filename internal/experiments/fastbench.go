package experiments

// The cold-cell suite benchmark: the fast tier exists to cut the cost of
// cold cells — cells that must actually simulate, the floor memoization
// cannot lower. Its canonical population is every tinyc benchmark under
// every Table 1 branch scheme (the grid the paper's central table sweeps,
// and the one the fast-gate differential wall locks down). MeasureFastTier
// times that grid end to end on the plain interpreter and again with the
// compiled fast tier, giving the speedup number BENCH_pr.json records and
// the CI trend tracks.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// FastTierBench is the recorded outcome of one cold-cell suite measurement
// (see MeasureFastTier). Wall clocks cover machine construction, execution
// and — on the fast side — block compilation and lint clearance, so the
// speedup is the end-to-end cost ratio a cold experiment cell sees, not a
// best-case inner-loop figure.
type FastTierBench struct {
	Cells      int     `json:"cells"`
	Cycles     uint64  `json:"cycles"`
	InterpMS   float64 `json:"interp_ms"`
	FastMS     float64 `json:"fast_ms"`
	Speedup    float64 `json:"speedup"`
	InterpCPS  float64 `json:"interp_cells_per_sec"`
	FastCPS    float64 `json:"fast_cells_per_sec"`
	Engagement float64 `json:"engagement"` // fraction of retirements through the tier
}

func (b *FastTierBench) String() string {
	return fmt.Sprintf("fast tier: %d cold cells, %d cycles: interpreter %.0f ms, fast %.0f ms (%.2fx, engagement %.0f%%)",
		b.Cells, b.Cycles, b.InterpMS, b.FastMS, b.Speedup, 100*b.Engagement)
}

// MeasureFastTier runs the cold-cell suite twice — interpreter only
// (fast tier off), then with the fast tier — checking on
// every cell that both executions halt with identical cycle counts and
// output. Images are built once outside the timed region (the toolchain
// cost is identical either way); everything else a cold cell pays is
// inside it. The run bypasses the experiment engine entirely so the
// numbers in the surrounding report are untouched.
func MeasureFastTier() (*FastTierBench, error) {
	type cell struct {
		b      tinyc.Benchmark
		scheme reorg.Scheme
	}
	var cells []cell
	for _, b := range tinyc.Benchmarks() {
		for _, s := range reorg.Table1Schemes() {
			cells = append(cells, cell{b, s})
		}
	}
	res := &FastTierBench{Cells: len(cells)}

	runPass := func(fast bool) (time.Duration, uint64, uint64, uint64, error) {
		var cycles, steps, retired uint64
		start := time.Now()
		for _, c := range cells {
			im, err := buildCached(c.b, c.scheme)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cfg, err := spec.Table1(c.scheme).Build()
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cfg.FastTier = fast
			m := core.New(cfg, nil)
			m.Load(im)
			cyc, err := m.Run(runLimit)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("%s/%s: %w", c.b.Name, c.scheme, err)
			}
			if want := c.b.Expect(); m.Output() != want {
				return 0, 0, 0, 0, fmt.Errorf("%s/%s: wrong output %q (want %q)", c.b.Name, c.scheme, m.Output(), want)
			}
			cycles += cyc
			steps += m.CPU.FastSteps
			retired += m.CPU.Stats.Retired
		}
		return time.Since(start), cycles, steps, retired, nil
	}

	// Build (and warm the shared build cache) outside both timed passes.
	for _, c := range cells {
		if _, err := buildCached(c.b, c.scheme); err != nil {
			return nil, err
		}
	}

	interpD, interpCyc, _, _, err := runPass(false)
	if err != nil {
		return nil, err
	}
	fastD, fastCyc, steps, retired, err := runPass(true)
	if err != nil {
		return nil, err
	}
	if interpCyc != fastCyc {
		return nil, fmt.Errorf("fast tier diverged on the cold-cell suite: %d cycles interpreted, %d fast", interpCyc, fastCyc)
	}

	res.Cycles = fastCyc
	res.InterpMS = float64(interpD) / 1e6
	res.FastMS = float64(fastD) / 1e6
	if fastD > 0 {
		res.Speedup = float64(interpD) / float64(fastD)
		res.FastCPS = float64(res.Cells) / fastD.Seconds()
	}
	if interpD > 0 {
		res.InterpCPS = float64(res.Cells) / interpD.Seconds()
	}
	if retired > 0 {
		res.Engagement = float64(steps) / float64(retired)
	}
	return res, nil
}
