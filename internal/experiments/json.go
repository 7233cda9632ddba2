package experiments

// Machine-readable bench results for `mipsx-bench -json`: what CI records as
// BENCH_pr.json, compares against BENCH_baseline.json, and uploads as an
// artifact. The document carries the rendered tables verbatim so a drift
// check is a pure string comparison, plus the wall-clock accounting the
// regression tracking needs. Deliberately no timestamps or hostnames: two
// runs of the same binary at the same settings must produce documents that
// differ only in the timing and memo-counter fields.

import (
	"runtime"
	"time"

	"repro/internal/jsondoc"
)

// BenchSchema identifies the document format.
const BenchSchema = "mipsx-bench/v1"

// ExpResult is one experiment's outcome.
type ExpResult struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	WallMS float64    `json:"wall_ms"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Text is the rendered table exactly as the CLI prints it — the unit of
	// the golden drift check.
	Text string `json:"text"`
}

// BenchDoc is the full report.
type BenchDoc struct {
	Schema     string `json:"schema"`
	Parallel   int    `json:"parallel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Predecode is retired with the predecode fast path: nothing sets it, so
	// it is never written, but BENCH_baseline.json still carries
	// "predecode": false and must parse strictly.
	Predecode bool   `json:"predecode,omitempty"`
	GoVersion string `json:"go_version"`

	Experiments []ExpResult `json:"experiments"`

	TotalWallMS          float64 `json:"total_wall_ms"`
	TotalCyclesSimulated uint64  `json:"total_cycles_simulated"`
	Cells                uint64  `json:"cells"`
	CellsPerSec          float64 `json:"cells_per_sec"`
	// MemoHits counts memoizable cells whose body did not run: they read a
	// result another cell produced in the engine's table, or one replayed
	// from the on-disk store. MemoMisses counts those that ran live, and
	// MemoHitRate is hits over both. The counts do not depend on whether a
	// store is open: a cold serial pass reads 73 hits and 152 misses with
	// or without -cache. Captures are never counted.
	MemoHits    uint64       `json:"memo_hits"`
	MemoMisses  uint64       `json:"memo_misses"`
	MemoHitRate float64      `json:"memo_hit_rate"`
	CellTimings []CellTiming `json:"cell_timings,omitempty"`

	// MemoWriteErrors counts results the on-disk memo store failed to
	// record; MemoCorrupt counts disk entries that existed but failed to
	// read, parse or match their key (each replaced by a live run). Nonzero
	// means the cache is degraded, never that a table is wrong. omitempty:
	// documents from healthy runs are byte-identical to older ones.
	MemoWriteErrors uint64 `json:"memo_write_errors,omitempty"`
	MemoCorrupt     uint64 `json:"memo_corrupt,omitempty"`

	// Attribution decomposes total_cycles_simulated by cause, summed over
	// every cell (live or replayed — replays carry their recorded
	// breakdown). JSON maps marshal with sorted keys, so the field is
	// deterministic.
	Attribution map[string]uint64 `json:"attribution,omitempty"`
	// AttributedCycles is the sum of the attribution values;
	// AttributionConserved asserts it equals total_cycles_simulated — the
	// engine-wide form of the per-machine conservation invariant, checked by
	// the CI bench gate.
	AttributedCycles     uint64 `json:"attributed_cycles"`
	AttributionConserved bool   `json:"attribution_conserved"`

	// ObsOverhead, when measured (mipsx-bench -obs-overhead), records the
	// wall-clock cost of each observation level against the unobserved
	// machine.
	ObsOverhead *ObsOverhead `json:"obs_overhead,omitempty"`
}

// NewBenchDoc assembles a report from rendered tables and the engine's
// counters. wall is the whole suite's wall clock; perExp the per-experiment
// wall clocks, index-aligned with tables. The two unnamed bools are the
// retired predecode and fast-tier flags, kept so perfbench/ compiles
// unmodified.
func NewBenchDoc(tables []*Table, perExp []time.Duration, wall time.Duration, parallel int, _, _ bool, e *Engine) *BenchDoc {
	doc := &BenchDoc{
		Schema:               BenchSchema,
		Parallel:             parallel,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		GoVersion:            runtime.Version(),
		TotalWallMS:          float64(wall) / 1e6,
		TotalCyclesSimulated: e.Cycles(),
		Cells:                e.Cells(),
		MemoHits:             e.MemoHits(),
		MemoMisses:           e.MemoMisses(),
		MemoWriteErrors:      e.MemoWriteErrors(),
		MemoCorrupt:          e.MemoCorrupt(),
		CellTimings:          e.Timings(),
		Attribution:          e.Attribution(),
	}
	for _, v := range doc.Attribution {
		doc.AttributedCycles += v
	}
	doc.AttributionConserved = doc.AttributedCycles == doc.TotalCyclesSimulated
	// The rate is derived from the document's own counters, so hits, misses
	// and rate agree.
	if lookups := doc.MemoHits + doc.MemoMisses; lookups > 0 {
		doc.MemoHitRate = float64(doc.MemoHits) / float64(lookups)
	}
	if wall > 0 {
		doc.CellsPerSec = float64(e.Cells()) / wall.Seconds()
	}
	for i, t := range tables {
		r := ExpResult{
			ID:     t.ID,
			Title:  t.Title,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
			Text:   t.String(),
		}
		if i < len(perExp) {
			r.WallMS = float64(perExp[i]) / 1e6
		}
		doc.Experiments = append(doc.Experiments, r)
	}
	return doc
}

// ParseBenchDoc reads a report strictly (jsondoc.Parse), rejecting other
// schemas so a mis-pointed file fails loudly instead of producing a zeroed
// report.
func ParseBenchDoc(b []byte) (*BenchDoc, error) {
	return jsondoc.Parse[BenchDoc](b, BenchSchema, "a bench document")
}
