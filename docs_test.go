package repro_test

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// docRef names where a number in EXPERIMENTS.md comes from: a cell of
// BENCH_baseline.json's tables (experiment ID, row label, column header),
// optionally one " / "-separated field of it, scaled, or divided by another
// cell; or, for a number that is part of a configuration's name, the row
// label or column header that names it.
type docRef struct {
	exp, row, col string
	field         int
	scale         float64 // 0 means 1
	per           *docRef // the value is this cell over per
	label         bool    // the number appears in row, a row label or header
}

func cell(exp, row, col string) docRef { return docRef{exp: exp, row: row, col: col} }

// pct is a fraction cell shown as a percentage.
func pct(exp, row, col string) docRef {
	r := cell(exp, row, col)
	r.scale = 100
	return r
}

// field is the i-th " / "-separated field of a cell.
func field(exp, row, col string, i int) docRef {
	r := cell(exp, row, col)
	r.field = i
	return r
}

// ratio is cell a over cell b.
func ratio(a, b docRef) docRef {
	a.per = &b
	return a
}

// named is a number that is part of the label or header text.
func named(exp, text string) docRef { return docRef{exp: exp, row: text, label: true} }

// docNumbers maps every bold span with a number in EXPERIMENTS.md's E1–E11
// sections, keyed by section and span, to the source of each number in it,
// in the order the numbers appear.
var docNumbers = map[[2]string][]docRef{
	{"E1", "1.74"}: {cell("E1", "2-slot no squash", "cycles/branch")},
	{"E1", "1.70"}: {cell("E1", "2-slot always squash", "cycles/branch")},
	{"E1", "1.54"}: {cell("E1", "2-slot squash optional", "cycles/branch")},
	{"E1", "1.08"}: {cell("E1", "1-slot no squash", "cycles/branch")},
	{"E1", "1.35"}: {cell("E1", "1-slot always squash", "cycles/branch")},
	{"E1", "1.13"}: {cell("E1", "1-slot squash optional", "cycles/branch")},
	{"E1", "1.45"}: {cell("E1", "2-slot squash optional + profile", "cycles/branch")},

	{"E2", "24%"}:         {pct("E2", "single fetch, 2-cycle miss", "miss ratio")},
	{"E2", "12%"}:         {pct("E2", "double fetch, 2-cycle miss (chosen)", "miss ratio")},
	{"E2", "1.24 cycles"}: {cell("E2", "double fetch, 2-cycle miss (chosen)", "fetch cycles")},
	{"E2", "24% → 12%"}: {
		pct("E2", "single fetch, 2-cycle miss", "miss ratio"),
		pct("E2", "double fetch, 2-cycle miss (chosen)", "miss ratio"),
	},
	{"E2", "12% → 8%, at bus bandwidth the pins don't have"}: {
		pct("E2", "double fetch, 2-cycle miss (chosen)", "miss ratio"),
		pct("E2", "triple fetch, 2-cycle miss", "miss ratio"),
	},
	{"E2", "1.24 → 1.37 cycles/fetch"}: {
		cell("E2", "double fetch, 2-cycle miss (chosen)", "fetch cycles"),
		cell("E2", "double fetch, 3-cycle miss (tags off datapath)", "fetch cycles"),
	},

	{"E3", "100%"}: {cell("E3", "branches needing explicit compare", "value")},
	{"E3", "55%"}:  {cell("E3", "quick-compare eligible branches", "value")},

	{"E4", "hit rate 0.11 on a large program's branch set"}: {
		cell("E4", "large program: branch cache, 16 entries", "hit rate"),
	},
	{"E4", "0.71 accuracy at 512 entries vs 0.80 for static+profile"}: {
		cell("E4", "large program: branch cache, 512 entries", "accuracy"),
		named("E4", "large program: branch cache, 512 entries"),
		cell("E4", "large program: static + profile", "accuracy"),
	},

	{"E5", "1.49× slower"}: {cell("E5", "non-cached coprocessor instructions", "vs chosen")},
	{"E5", "1.50× slower, 20 pins"}: {
		cell("E5", "dedicated coprocessor bus (memory-mediated data)", "vs chosen"),
		cell("E5", "dedicated coprocessor bus (memory-mediated data)", "extra pins"),
	},
	{"E5", "baseline, 1 pin"}: {cell("E5", "address pins, cached (chosen)", "extra pins")},
	{"E5", "1.35× faster on a vector-scale kernel"}: {
		cell("E5", "FPU vector scale via CPU registers (other coprocessors)", "vs chosen"),
	},

	{"E6", "4.4%"}:  {cell("E6", "no-op fraction", "pascal")},
	{"E6", "12.4%"}: {cell("E6", "no-op fraction", "lisp")},
	{"E6", "1.2–1.4"}: {
		cell("E6", "total cycles/instruction", "pascal"),
		cell("E6", "total cycles/instruction", "lisp"),
	},
	{"E6", "14.7–16.1 MIPS"}: {
		cell("E6", "sustained MIPS @ 20 MHz", "lisp"),
		cell("E6", "sustained MIPS @ 20 MHz", "pascal"),
	},

	{"E7", "1.73×"}: {cell("E7", "geometric mean", "path ratio")},
	{"E7", "2.20×"}: {cell("E7", "geometric mean", "size ratio")},
	{"E7", "12.0×"}: {cell("E7", "geometric mean", "speedup")},

	{"E8", "17.2 cycles per null trap round-trip"}: {
		cell("E8", "cycles per exception (entry + minimal handler + 3-jump restart)", "value"),
	},
	{"E8", "exactly 3"}: {cell("E8", "instructions killed per exception", "value")},
	{"E8", "trap: 1 exception, result suppressed; sticky: 0 exceptions, result written, PSW bit set"}: {
		field("E8", "trap-on-overflow: exceptions / result written", "value", 0),
		field("E8", "sticky-overflow:  exceptions / result written / PSW bit", "value", 0),
	},

	{"E9", "40 MW/s"}: {cell("E9", "peak demand (1 ifetch + 1 data/cycle)", "MW/s")},
	{"E9", "26.7 MW/s by the paper's rule; 23.3 MW/s measured"}: {
		cell("E9", "paper's rule of thumb (1 ifetch/cycle + data every 3rd)", "MW/s"),
		cell("E9", "average demand without Icache (measured)", "MW/s"),
	},
	{"E9", "3.64 MW/s — a 6.4× reduction"}: {
		cell("E9", "pin traffic with Icache", "MW/s"),
		ratio(cell("E9", "average demand without Icache (measured)", "MW/s"), cell("E9", "pin traffic with Icache", "MW/s")),
	},

	{"E10", "1.04× worse"}: {
		ratio(cell("E10", "FIFO 16K words", "miss ratio"), cell("E10", "LRU 16K words", "miss ratio")),
	},
	{"E10", "337 vs 203 words/1k refs"}: {
		cell("E10", "write-through 16K, 20% writes", "bus words/1k refs"),
		cell("E10", "copy-back 16K, 20% writes", "bus words/1k refs"),
		named("E10", "bus words/1k refs"),
	},
	{"E10", "0.046 → 0.030 over 4K→64K words"}: {
		cell("E10", "LRU 4K words", "miss ratio"),
		cell("E10", "LRU 64K words", "miss ratio"),
		named("E10", "LRU 4K words"),
		named("E10", "LRU 64K words"),
	},
	{"E10", "0.0178 → 0.0012"}: {
		cell("E10", "demand fetch 16K", "miss ratio"),
		cell("E10", "always prefetch 16K", "miss ratio"),
	},
	{"E10", "0.0014"}: {cell("E10", "tagged prefetch 16K", "miss ratio")},
	{"E10", "0.0093"}: {cell("E10", "prefetch on miss 16K", "miss ratio")},

	{"E11", "158×"}: {cell("E11", "10", "vs VAX 11/780")},
}

// docExempt lists the bold phrases of those sections that carry no number.
var docExempt = map[string]bool{
	"yes":                              true,
	"reproduced":                       true,
	"same FSM counts both event kinds": true,
}

var (
	boldSpan  = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	docNumber = regexp.MustCompile(`\d[\d,]*(?:\.\d+)?`)
	expHead   = regexp.MustCompile(`^## (E\d+) `)
)

// TestExperimentsDocMatchesGolden: every bold number in EXPERIMENTS.md's
// E1–E11 sections is the golden table's value at the doc's own rounding —
// a cell, a ratio of cells, or a number in a configuration's name — and
// every mapping names a span the doc still has.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := goldenTables(t)

	seen := map[[2]string]bool{}
	sec := ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			sec = ""
			if m := expHead.FindStringSubmatch(line); m != nil {
				if n, _ := strconv.Atoi(m[1][1:]); n <= 11 {
					sec = m[1]
				}
			}
			continue
		}
		if sec == "" {
			continue
		}
		for _, m := range boldSpan.FindAllStringSubmatch(line, -1) {
			span := m[1]
			nums := docNumber.FindAllString(span, -1)
			if docExempt[span] {
				if len(nums) > 0 {
					t.Errorf("%s: exempt bold phrase %q carries numbers %v", sec, span, nums)
				}
				continue
			}
			key := [2]string{sec, span}
			refs, ok := docNumbers[key]
			if !ok {
				t.Errorf("%s: bold %q has no mapping to the golden", sec, span)
				continue
			}
			seen[key] = true
			if len(refs) != len(nums) {
				t.Errorf("%s: bold %q holds numbers %v, mapped to %d sources", sec, span, nums, len(refs))
				continue
			}
			for i, num := range nums {
				if err := checkDocNumber(tables, refs[i], strings.ReplaceAll(num, ",", "")); err != nil {
					t.Errorf("%s: bold %q: %s: %v", sec, span, num, err)
				}
			}
		}
	}
	for key := range docNumbers {
		if !seen[key] {
			t.Errorf("mapping for %s bold %q names no span in EXPERIMENTS.md", key[0], key[1])
		}
	}
}

// readmeNumbers maps each "measured here" cell of README.md's "Headline
// reproductions" table that holds a number to the source of each number in
// it, in order. E12 is e12Table's fold of SCENARIO_baseline.json.
var readmeNumbers = map[string][]docRef{
	"1.54 vs 1.74 (ordering and shipped-scheme band reproduced)": {
		cell("E1", "2-slot squash optional", "cycles/branch"),
		cell("E1", "2-slot no squash", "cycles/branch"),
	},
	"24% → 12%, 1.24 cycles/fetch": {
		pct("E2", "single fetch, 2-cycle miss", "miss ratio"),
		pct("E2", "double fetch, 2-cycle miss (chosen)", "miss ratio"),
		cell("E2", "double fetch, 2-cycle miss (chosen)", "fetch cycles"),
	},
	"1.49× slower": {cell("E5", "non-cached coprocessor instructions", "vs chosen")},
	"1.73× path, 12.0× speedup (geomean)": {
		cell("E7", "geometric mean", "path ratio"),
		cell("E7", "geometric mean", "speedup"),
	},
	"10 nodes = 158× (extension experiment E11)": {
		named("E11", "10"),
		cell("E11", "10", "vs VAX 11/780"),
	},
	"flush costs up to 63% more CPI at a 2,000-cycle quantum; PID-tagged rows charge provably zero switch cycles (E12)": {
		pct("E12", "2000", "largest flush CPI excess"),
		named("E12", "2000"),
	},
}

// readmeNumber is docNumber for README's table, whose cells also name
// experiments: a digit right after a letter (E11) is part of a name.
var readmeNumber = regexp.MustCompile(`\b\d[\d,]*(?:\.\d+)?`)

// TestReadmeHeadlinesMatchGolden: every number README.md's headline table
// reports as measured is the golden value at the README's rounding, and
// every mapping names a cell the table still has.
func TestReadmeHeadlinesMatchGolden(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("SCENARIO_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := experiments.ParseScenarioDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	tables := goldenTables(t)
	tables["E12"] = e12Table(scn)

	_, table, _ := strings.Cut(string(readme), "\n## Headline reproductions\n")
	table, _, _ = strings.Cut(table, "\n## ")
	seen := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 4 {
			continue
		}
		measured := strings.TrimSpace(cols[2])
		nums := readmeNumber.FindAllString(measured, -1)
		if len(nums) == 0 {
			continue
		}
		refs, ok := readmeNumbers[measured]
		if !ok {
			t.Errorf("README headline %q has no mapping to the golden", measured)
			continue
		}
		seen[measured] = true
		if len(refs) != len(nums) {
			t.Errorf("README headline %q holds numbers %v, mapped to %d sources", measured, nums, len(refs))
			continue
		}
		for i, num := range nums {
			if err := checkDocNumber(tables, refs[i], strings.ReplaceAll(num, ",", "")); err != nil {
				t.Errorf("README headline %q: %s: %v", measured, num, err)
			}
		}
	}
	for key := range readmeNumbers {
		if !seen[key] {
			t.Errorf("mapping for README headline %q names no cell in the table", key)
		}
	}
}

// goldenTables reads BENCH_baseline.json's tables by experiment ID.
func goldenTables(t *testing.T) map[string]experiments.ExpResult {
	t.Helper()
	b, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := experiments.ParseBenchDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]experiments.ExpResult{}
	for _, e := range golden.Experiments {
		tables[e.ID] = e
	}
	return tables
}

// e12Table folds the quantum sweep's golden document into one row per
// quantum: the largest fraction by which the flush policy's CPI exceeds the
// pid policy's on the same workload.
func e12Table(doc *experiments.ScenarioDoc) experiments.ExpResult {
	type run struct {
		workload string
		quantum  int
	}
	pid := map[run]float64{}
	for _, c := range doc.Cells {
		if c.Policy == "pid" {
			pid[run{c.Workload, c.Quantum}] = c.Result.CPI()
		}
	}
	excess := map[int]float64{}
	for _, c := range doc.Cells {
		if c.Policy == "flush" {
			excess[c.Quantum] = max(excess[c.Quantum], c.Result.CPI()/pid[run{c.Workload, c.Quantum}]-1)
		}
	}
	tb := experiments.ExpResult{ID: "E12", Header: []string{"quantum", "largest flush CPI excess"}}
	for q, x := range excess {
		tb.Rows = append(tb.Rows, []string{strconv.Itoa(q), strconv.FormatFloat(x, 'g', -1, 64)})
	}
	return tb
}

// checkDocNumber checks one doc number against its source.
func checkDocNumber(tables map[string]experiments.ExpResult, r docRef, num string) error {
	tb, ok := tables[r.exp]
	if !ok {
		return fmt.Errorf("no golden table %s", r.exp)
	}
	if r.label {
		for _, text := range tb.Header {
			if text == r.row && strings.Contains(text, num) {
				return nil
			}
		}
		for _, row := range tb.Rows {
			if row[0] == r.row && strings.Contains(row[0], num) {
				return nil
			}
		}
		return fmt.Errorf("no %s label or header %q containing it", r.exp, r.row)
	}
	v, err := goldenValue(tb, r)
	if err != nil {
		return err
	}
	dec := 0
	if i := strings.IndexByte(num, '.'); i >= 0 {
		dec = len(num) - i - 1
	}
	if got := strconv.FormatFloat(v, 'f', dec, 64); got != num {
		return fmt.Errorf("golden gives %v, %s at the doc's rounding", v, got)
	}
	return nil
}

// goldenValue reads the value r names from table tb.
func goldenValue(tb experiments.ExpResult, r docRef) (float64, error) {
	col := -1
	for i, h := range tb.Header {
		if h == r.col {
			col = i
		}
	}
	var text string
	for _, row := range tb.Rows {
		if row[0] == r.row && col >= 0 {
			text = row[col]
		}
	}
	fields := strings.Split(text, " / ")
	if text == "" || r.field >= len(fields) {
		return 0, fmt.Errorf("no golden cell %s / %q / %q field %d", tb.ID, r.row, r.col, r.field)
	}
	v, err := strconv.ParseFloat(strings.TrimRight(fields[r.field], "%x"), 64)
	if err != nil {
		return 0, fmt.Errorf("golden cell %s / %q / %q: %v", tb.ID, r.row, r.col, err)
	}
	if r.scale != 0 {
		v *= r.scale
	}
	if r.per != nil {
		d, err := goldenValue(tb, *r.per)
		if err != nil {
			return 0, err
		}
		v /= d
	}
	return v, nil
}
