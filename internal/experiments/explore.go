package experiments

// The design-space explorer behind cmd/mipsx-explore: a spec.Sweep fans out
// through the experiment engine — one memoizable benchmark cell per
// (design point × benchmark), the same closures the experiment tables key on,
// so a sweep shares cache entries with the tables and with earlier sweeps —
// and folds into a deterministic document: per-point CPI, Icache area and
// static code size, each point's cycle-attribution decomposition
// (conservation-checked), and the Pareto frontier over the three objectives
// (all minimized). Deliberately no timestamps or hostnames: the same binary
// over the same sweep produces the same document, which is what the CI
// explore-smoke gate diffs.

import (
	"context"
	"fmt"

	"repro/internal/jsondoc"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// ExploreSchema identifies the explorer document format.
const ExploreSchema = "mipsx-explore/v1"

// ExplorePoint is one evaluated design point.
type ExplorePoint struct {
	// Label names the point by its axis assignments ("scheme=2/optional
	// icache.sets=8"; "base" for the axisless point).
	Label string `json:"label"`
	// Digest is the point's spec digest — its content identity, shared with
	// the memo keys of the cells that evaluated it.
	Digest string           `json:"digest"`
	Coords []spec.Coord     `json:"coords,omitempty"`
	Spec   spec.MachineSpec `json:"spec"`
	Scheme string           `json:"scheme"`

	// The three objectives, all minimized.
	CPI        float64 `json:"cpi"`
	IcacheBits int     `json:"icache_bits"`
	CodeWords  int     `json:"code_words"`
	Pareto     bool    `json:"pareto"`

	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	// Attribution decomposes Cycles by cause, summed over the point's
	// benchmarks; Explore verifies it conserves (sums to Cycles) per point.
	Attribution map[string]uint64 `json:"attribution"`
}

// Dominates reports Pareto dominance: p is no worse on every objective and
// strictly better on at least one.
func (p *ExplorePoint) Dominates(q *ExplorePoint) bool {
	if p.CPI > q.CPI || p.IcacheBits > q.IcacheBits || p.CodeWords > q.CodeWords {
		return false
	}
	return p.CPI < q.CPI || p.IcacheBits < q.IcacheBits || p.CodeWords < q.CodeWords
}

// ExploreDoc is the full explorer report.
type ExploreDoc struct {
	Schema     string         `json:"schema"`
	Benchmarks []string       `json:"benchmarks"`
	Points     []ExplorePoint `json:"points"`
	// FrontierSize counts the Pareto-flagged points.
	FrontierSize int `json:"frontier_size"`
}

// ParseExploreDoc reads a document strictly (jsondoc.Parse), rejecting
// other schemas.
func ParseExploreDoc(b []byte) (*ExploreDoc, error) {
	return jsondoc.Parse[ExploreDoc](b, ExploreSchema, "an explorer document")
}

// Explore evaluates every point of the sweep on the benchmarks (nil means
// the Table 1 integer suite; a repeated one is an error, since it would
// count twice in every point) and folds the results into a document. Points
// keep sweep enumeration order; the cells fan out through the default
// engine, so -parallel and -cache apply as everywhere else.
func Explore(ctx context.Context, sw spec.Sweep, benches []tinyc.Benchmark) (*ExploreDoc, error) {
	if benches == nil {
		benches = table1Benchmarks()
	}
	seen := make(map[string]bool, len(benches))
	for _, b := range benches {
		if seen[b.Name] {
			return nil, fmt.Errorf("benchmark %q is repeated", b.Name)
		}
		seen[b.Name] = true
	}
	points, err := sw.Points()
	if err != nil {
		return nil, err
	}
	// One memoizable cell per (point × benchmark) — exactly a benchCell, so
	// a point that coincides with an experiment table's machine replays from
	// the table's entries and vice versa. A point carrying a scenario block
	// instead runs the benchmarks as ONE multiprogrammed scenario cell: the
	// sweep's quantum/policy axes measure the switch-cost landscape over the
	// same member set every other point runs standalone.
	results := make([][]RunResult, len(points))
	scnResults := make([]scenario.Result, len(points))
	var cells []Cell
	for i, p := range points {
		if p.Spec.Scenario != nil {
			cells = append(cells, scenarioCell(
				fmt.Sprintf("EXPL[%d]/%s/scenario", i, p.Label()),
				benches, p.Spec, &scnResults[i]))
			continue
		}
		results[i] = make([]RunResult, len(benches))
		for j, b := range benches {
			cells = append(cells, benchCell(
				fmt.Sprintf("EXPL[%d]/%s/%s", i, p.Label(), b.Name),
				b, false, p.Spec, &results[i][j]))
		}
	}
	if err := DefaultEngine().Run(ctx, cells); err != nil {
		return nil, err
	}

	doc := &ExploreDoc{Schema: ExploreSchema}
	for _, b := range benches {
		doc.Benchmarks = append(doc.Benchmarks, b.Name)
	}
	for i, p := range points {
		ep := ExplorePoint{
			Label:       p.Label(),
			Digest:      p.Spec.Digest(),
			Coords:      p.Coords,
			Spec:        p.Spec,
			Scheme:      p.Spec.Branch.String(),
			IcacheBits:  p.Spec.ICache.StateBits(),
			Attribution: make(map[string]uint64),
		}
		if p.Spec.Scenario != nil {
			r := &scnResults[i]
			ep.Cycles = r.Cycles
			ep.Instructions = r.Instructions
			if r.Obs == nil {
				return nil, fmt.Errorf("point %s: scenario carries no attribution report", ep.Label)
			}
			for c, v := range r.Obs.Map() {
				ep.Attribution[c] += v
			}
			for _, pr := range r.Programs {
				ep.CodeWords += pr.CodeWords
			}
		} else {
			for j, b := range benches {
				r := &results[i][j]
				ep.Cycles += r.Stats.Pipeline.Cycles
				ep.Instructions += r.Stats.Pipeline.Issued()
				if r.Obs == nil {
					return nil, fmt.Errorf("point %s: %s carries no attribution report", ep.Label, b.Name)
				}
				for c, v := range r.Obs.Map() {
					ep.Attribution[c] += v
				}
				im, err := buildCached(b, p.Spec.Branch)
				if err != nil {
					return nil, err
				}
				ep.CodeWords += tinyc.StaticInstructions(im)
			}
		}
		if ep.Instructions > 0 {
			ep.CPI = float64(ep.Cycles) / float64(ep.Instructions)
		}
		// Per-point conservation: the folded decomposition must sum to the
		// folded cycles, the document-level form of the ledger invariant.
		var attributed uint64
		for _, v := range ep.Attribution {
			attributed += v
		}
		if attributed != ep.Cycles {
			return nil, fmt.Errorf("point %s: attribution sums to %d cycles, simulated %d",
				ep.Label, attributed, ep.Cycles)
		}
		doc.Points = append(doc.Points, ep)
	}

	for i := range doc.Points {
		dominated := false
		for j := range doc.Points {
			if i != j && doc.Points[j].Dominates(&doc.Points[i]) {
				dominated = true
				break
			}
		}
		doc.Points[i].Pareto = !dominated
		if !dominated {
			doc.FrontierSize++
		}
	}
	return doc, nil
}

// PointsTable renders every point, frontier members marked.
func PointsTable(d *ExploreDoc) *Table {
	t := &Table{
		ID:     "EXPLORE",
		Title:  fmt.Sprintf("Design-space sweep: %d points, %d on the Pareto frontier", len(d.Points), d.FrontierSize),
		Header: []string{"point", "CPI", "icache bits", "code words", "pareto"},
	}
	for i := range d.Points {
		p := &d.Points[i]
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		t.AddRow(p.Label, fmt.Sprintf("%.4f", p.CPI), p.IcacheBits, p.CodeWords, mark)
	}
	return t
}

// FrontierTable renders the Pareto frontier alone, with each point's largest
// attribution causes — the "why is this point shaped this way" view.
func FrontierTable(d *ExploreDoc) *Table {
	t := &Table{
		ID:     "FRONTIER",
		Title:  "Pareto frontier over (CPI, Icache area, code size), all minimized",
		Header: []string{"point", "CPI", "icache bits", "code words", "top causes"},
	}
	for i := range d.Points {
		p := &d.Points[i]
		if !p.Pareto {
			continue
		}
		t.AddRow(p.Label, fmt.Sprintf("%.4f", p.CPI), p.IcacheBits, p.CodeWords, topCauses(p, 3))
	}
	return t
}

// topCauses renders the point's n largest attribution rows as
// "cause share%", deterministically (ties break by name).
func topCauses(p *ExplorePoint, n int) string {
	type cc struct {
		cause  string
		cycles uint64
	}
	sorted := make([]cc, 0, len(p.Attribution))
	for c, v := range p.Attribution {
		sorted = append(sorted, cc{c, v})
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && (sorted[j].cycles > sorted[j-1].cycles ||
			(sorted[j].cycles == sorted[j-1].cycles && sorted[j].cause < sorted[j-1].cause)); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	out := ""
	for _, s := range sorted[:n] {
		if s.cycles == 0 {
			break
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s %.0f%%", s.cause, 100*float64(s.cycles)/float64(p.Cycles))
	}
	return out
}
