package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/jsondoc"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

func fibOnly(t *testing.T) []tinyc.Benchmark {
	t.Helper()
	for _, b := range tinyc.Benchmarks() {
		if b.Name == "fib" {
			return []tinyc.Benchmark{b}
		}
	}
	t.Fatal("fib benchmark missing")
	return nil
}

// TestExploreSchemeSweep checks the default Table 1 sweep end to end on one
// cheap benchmark: six points, every point attribution-conserving (Explore
// errors otherwise), a nonempty frontier, and the shipped design point
// carrying the shipped Icache area.
func TestExploreSchemeSweep(t *testing.T) {
	defer Configure(0, 0, false)
	Configure(1, 0, false)

	doc, err := Explore(context.Background(), spec.Sweep{Axes: []spec.Axis{spec.Table1Axis()}}, fibOnly(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Points) != 6 {
		t.Fatalf("got %d points, want 6", len(doc.Points))
	}
	if doc.FrontierSize == 0 || doc.FrontierSize > len(doc.Points) {
		t.Fatalf("frontier size %d out of range", doc.FrontierSize)
	}
	for i := range doc.Points {
		p := &doc.Points[i]
		if p.CPI <= 0 || p.Cycles == 0 || p.Instructions == 0 || p.CodeWords == 0 {
			t.Errorf("point %s: degenerate objectives %+v", p.Label, p)
		}
		if p.IcacheBits != 17728 {
			t.Errorf("point %s: icache bits %d, want the shipped 17728 (scheme axis moves no geometry)",
				p.Label, p.IcacheBits)
		}
		if p.Digest != p.Spec.Digest() {
			t.Errorf("point %s: stored digest disagrees with its spec", p.Label)
		}
	}

	// Frontier flags are consistent with Dominates.
	for i := range doc.Points {
		dominated := false
		for j := range doc.Points {
			if i != j && doc.Points[j].Dominates(&doc.Points[i]) {
				dominated = true
			}
		}
		if doc.Points[i].Pareto == dominated {
			t.Errorf("point %s: pareto flag %v inconsistent with dominance", doc.Points[i].Label, doc.Points[i].Pareto)
		}
	}

	// The document round-trips through its own schema check.
	b, err := jsondoc.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseExploreDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(doc.Points) || back.FrontierSize != doc.FrontierSize {
		t.Fatal("document round trip lost points")
	}
	if _, err := ParseExploreDoc([]byte(`{"schema":"mipsx-bench/v1"}`)); err == nil {
		t.Fatal("foreign schema parsed as an explorer document")
	}

	// The tables render every point exactly once.
	pt := PointsTable(doc).String()
	for i := range doc.Points {
		if !strings.Contains(pt, doc.Points[i].Label) {
			t.Errorf("points table is missing %s", doc.Points[i].Label)
		}
	}
	if ft := FrontierTable(doc).String(); !strings.Contains(ft, "%") {
		t.Error("frontier table carries no attribution shares")
	}
}

// TestExploreDeterminismAt108Points is the acceptance gate for the explorer:
// a 108-point sweep (6 schemes × 3 Icache geometries × 2 fetch widths × 3
// Ecache sizes) produces byte-identical documents on a cold and a hot pass
// over a shared on-disk memo store — the hot pass replaying from cache rather
// than re-simulating.
func TestExploreDeterminismAt108Points(t *testing.T) {
	if testing.Short() {
		t.Skip("108-point sweep in -short mode")
	}
	defer Configure(0, 0, false)

	sw := spec.Sweep{Axes: []spec.Axis{spec.Table1Axis()}}
	sw.Axes = append(sw.Axes,
		spec.Axis{Path: "icache.sets", Values: []any{float64(2), float64(4), float64(8)}},
		spec.Axis{Path: "icache.fetch_back", Values: []any{float64(1), float64(2)}},
		spec.Axis{Path: "ecache.size_words", Values: []any{float64(16384), float64(65536), float64(262144)}},
	)
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 100 {
		t.Fatalf("sweep enumerates %d points, the gate needs >= 100", len(pts))
	}

	dir := t.TempDir()
	benches := fibOnly(t)
	var docs [][]byte
	for pass, label := range []string{"cold", "hot"} {
		e := Configure(4, 0, false)
		store, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.Store = store
		doc, err := Explore(context.Background(), sw, benches)
		if err != nil {
			t.Fatalf("%s pass: %v", label, err)
		}
		b, err := jsondoc.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
		t.Logf("%s pass: %d points, %d on the frontier, memo hits %d of %d",
			label, len(doc.Points), doc.FrontierSize, e.MemoHits(), e.MemoHits()+e.MemoMisses())
		if pass == 1 && e.MemoHits() == 0 {
			t.Error("hot pass replayed nothing from the shared store")
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("cold and hot documents differ — the explorer is not deterministic")
	}
}
