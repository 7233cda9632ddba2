package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// clusterCell builds a memoizable cell that runs n copies of src, one per
// CPU of an n-node shared-bus multiprocessor, and deposits the summary in
// *out. Each node's ledger is conservation-verified inside the run, with
// the shared-bus arbitration waits under the bus-wait cause.
func clusterCell(id, src string, n int, out *scenario.ClusterStats) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			progs := make([]scenario.Program, n)
			for j := range progs {
				progs[j] = scenario.Program{Name: fmt.Sprintf("node%d", j), Source: src}
			}
			var r scenario.Result
			opts := scenario.RunOpts{Multiprocessor: true}
			if err := runScenario(ctx, progs, reorg.Default(), spec.Default(), opts, &r); err != nil {
				return err
			}
			*out = r.Cluster()
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				// tinyc.Build is deterministic over (source, scheme), so the
				// source plus the scheme covers the per-node images.
				k := newKey("cluster")
				k.str("source", src)
				k.str("scheme", reorg.Default().String())
				k.num("nodes", uint64(n))
				k.num("limit", scenario.CycleLimit)
				k.str("spec", spec.Default().Digest())
				return k.sum(), nil
			},
			Out: out,
		},
	}
}

// MultiprocessorScaling is E11, an extension beyond the paper's own
// evaluation: the shared-memory multiprocessor the processor was designed
// for ("use 6-10 of these processors as the nodes in a shared memory
// multiprocessor. The resulting machine would be about two orders of
// magnitude more powerful than a VAX 11/780"). Every node runs the same
// benchmark; the shared bus arbitrates all off-chip traffic. The on-chip
// Icache is what keeps per-node pin bandwidth low enough for the bus to
// carry 10 nodes.
func MultiprocessorScaling() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Shared-memory multiprocessor scaling (extension; the project's system goal)",
		Paper:  "6–10 nodes ≈ two orders of magnitude over a VAX 11/780",
		Header: []string{"nodes", "aggregate MIPS", "bus wait/node (cycles)", "vs VAX 11/780"},
	}
	bench := tinyc.Benchmarks()[3] // sieve: branchy, array-heavy, fits the window 10×
	sizes := []int{1, 2, 4, 6, 8, 10}

	// Each cluster size is a cell (a whole cluster shares state internally
	// but nothing across cells), plus a cell for the VAX reference rate on
	// the same program. All are memoizable: the cluster's closure is the
	// program source, the reorg scheme, the node count, the per-node spec
	// and the cycle limit (scenario.ClusterStats is pure exported scalars).
	var vaxRes VAXResult
	stats := make([]scenario.ClusterStats, len(sizes))
	cells := make([]Cell, 0, len(sizes)+1)
	cells = append(cells, vaxCell("E11/vax", bench.Source, 200_000_000, &vaxRes))
	for i, n := range sizes {
		cells = append(cells, clusterCell(fmt.Sprintf("E11/nodes=%d", n), bench.Source, n, &stats[i]))
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	vaxSeconds := float64(vaxRes.Stats.Cycles) / (5.0 * 1e6) // 5 MHz clock
	for i, n := range sizes {
		s := stats[i]
		// n programs finished in makespan cycles; the VAX does them one
		// after another.
		mxSeconds := float64(s.MakespanCycles) / (core.ClockMHz * 1e6)
		speedup := float64(n) * vaxSeconds / mxSeconds
		t.AddRow(fmt.Sprint(n), s.AggregateMIPS,
			fmt.Sprintf("%.0f", float64(s.BusWaitCycles)/float64(n)),
			fmt.Sprintf("%.0fx", speedup))
	}
	t.Notes = append(t.Notes,
		"every node runs its own copy of the sieve benchmark; the bus carries all Icache refills and data traffic",
		"this experiment extends the paper, whose evaluation stopped at the uniprocessor")
	return t, nil
}
