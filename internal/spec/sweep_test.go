package spec

import (
	"reflect"
	"strings"
	"testing"
)

func TestPatch(t *testing.T) {
	ms, err := Default().Patch("icache.sets", float64(8))
	if err != nil {
		t.Fatal(err)
	}
	if ms.ICache.Sets != 8 {
		t.Fatalf("icache.sets = %d, want 8", ms.ICache.Sets)
	}
	if ms.ECache != Default().ECache || ms.Branch != Default().Branch {
		t.Fatal("patch disturbed unrelated fields")
	}

	ms, err = Default().Patch("ecache.repl", "fifo")
	if err != nil {
		t.Fatal(err)
	}
	if ms.ECache.Repl != ReplFIFO {
		t.Fatalf("ecache.repl = %q, want fifo", ms.ECache.Repl)
	}

	ms, err = Default().Patch("scheme", "1-slot no squash")
	if err != nil {
		t.Fatal(err)
	}
	if ms.Branch.Slots != 1 || ms.Branch.Squash != SquashNone {
		t.Fatalf("scheme patch gave %+v", ms.Branch)
	}
}

func TestPatchErrors(t *testing.T) {
	if _, err := Default().Patch("icache.setz", float64(8)); err == nil || !strings.Contains(err.Error(), "setz") {
		t.Fatalf("typo'd leaf: err = %v, want an unknown-field rejection", err)
	}
	// A typo'd intermediate segment is synthesized as an empty object (so
	// optional sub-specs like "scenario" can be swept), but Parse rejects the
	// unknown field — the path still fails loudly.
	if _, err := Default().Patch("izache.sets", float64(8)); err == nil || !strings.Contains(err.Error(), "izache") {
		t.Fatalf("typo'd object: err = %v, want an unknown-field rejection", err)
	}
	// A path descending through a scalar is a genuinely wrong shape.
	if _, err := Default().Patch("icache.sets.deeper", float64(8)); err == nil || !strings.Contains(err.Error(), "unknown axis path") {
		t.Fatalf("scalar-object path: err = %v, want unknown axis path", err)
	}
	if _, err := Default().Patch("icache.sets", float64(3)); err == nil {
		t.Fatal("invalid value validated")
	}
	if _, err := Default().Patch("scheme", "3/optional"); err == nil {
		t.Fatal("unknown scheme patched")
	}
	if _, err := Default().Patch("scheme", float64(2)); err == nil {
		t.Fatal("non-string scheme patched")
	}
}

// TestPatchScenario: patching one scenario field on a spec with no scenario
// block must seed the rest from DefaultScenario so the point validates —
// this is what makes "scenario.quantum" and "scenario.policy" usable as
// explorer axes.
func TestPatchScenario(t *testing.T) {
	ms, err := Default().Patch("scenario.quantum", float64(5000))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Scenario == nil {
		t.Fatal("scenario block not created")
	}
	def := DefaultScenario()
	if ms.Scenario.Quantum != 5000 || ms.Scenario.Policy != def.Policy || ms.Scenario.SwitchCost != def.SwitchCost {
		t.Fatalf("scenario = %+v, want quantum 5000 over defaults %+v", ms.Scenario, def)
	}

	ms2, err := ms.Patch("scenario.policy", "pid")
	if err != nil {
		t.Fatal(err)
	}
	if ms2.Scenario.Policy != PolicyPID || ms2.Scenario.Quantum != 5000 {
		t.Fatalf("second patch lost state: %+v", ms2.Scenario)
	}

	// The scenario block is digest material: a quantum change is a new point.
	if ms.Digest() == Default().Digest() || ms.Digest() == ms2.Digest() {
		t.Fatal("scenario fields not covered by the spec digest")
	}

	if _, err := Default().Patch("scenario.policy", "lru"); err == nil {
		t.Fatal("invalid policy validated")
	}
	if _, err := Default().Patch("scenario.quantum", float64(0)); err == nil {
		t.Fatal("zero quantum validated")
	}
}

func TestSweepPoints(t *testing.T) {
	sw := Sweep{Axes: []Axis{
		{Path: "icache.sets", Values: []any{float64(2), float64(4), float64(8)}},
		{Path: "icache.fetch_back", Values: []any{float64(1), float64(2)}},
	}}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	// Row-major: first axis slowest, so sets stays put while fetch_back runs.
	wantLabels := []string{
		"icache.sets=2 icache.fetch_back=1",
		"icache.sets=2 icache.fetch_back=2",
		"icache.sets=4 icache.fetch_back=1",
		"icache.sets=4 icache.fetch_back=2",
		"icache.sets=8 icache.fetch_back=1",
		"icache.sets=8 icache.fetch_back=2",
	}
	for i, p := range pts {
		if p.Label() != wantLabels[i] {
			t.Errorf("point %d label %q, want %q", i, p.Label(), wantLabels[i])
		}
	}
	if pts[3].Spec.ICache.Sets != 4 || pts[3].Spec.ICache.FetchBack != 2 {
		t.Fatalf("point 3 spec %+v disagrees with its label", pts[3].Spec.ICache)
	}

	// Enumeration is deterministic.
	again, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Fatal("two enumerations of the same sweep differ")
	}
}

func TestSweepPointsDedupe(t *testing.T) {
	// Two axes that realize the same spec twice: the duplicate collapses,
	// keeping the first occurrence.
	sw := Sweep{Axes: []Axis{
		{Path: "icache.sets", Values: []any{float64(4), float64(4), float64(8)}},
	}}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 after dedupe", len(pts))
	}
	if pts[0].Spec.ICache.Sets != 4 || pts[1].Spec.ICache.Sets != 8 {
		t.Fatalf("dedupe reordered: %v then %v", pts[0].Spec.ICache.Sets, pts[1].Spec.ICache.Sets)
	}
}

func TestSweepAxislessIsBase(t *testing.T) {
	pts, err := Sweep{}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label() != "base" || pts[0].Spec != Default() {
		t.Fatalf("axisless sweep = %+v, want the single default base point", pts)
	}

	other := Default()
	other.ICache.Sets = 8
	pts, err = Sweep{Base: &other}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Spec != other {
		t.Fatal("explicit base not honored")
	}
}

func TestSweepRejectsBadDefinitions(t *testing.T) {
	bad := Default()
	bad.ICache.Ways = 0
	if _, err := (Sweep{Base: &bad}).Points(); err == nil {
		t.Fatal("invalid base enumerated")
	}
	if _, err := (Sweep{Axes: []Axis{{Path: "icache.sets"}}}).Points(); err == nil {
		t.Fatal("valueless axis enumerated")
	}
	if _, err := (Sweep{Axes: []Axis{{Values: []any{float64(1)}}}}).Points(); err == nil {
		t.Fatal("pathless axis enumerated")
	}
	if _, err := ParseSweep([]byte(`{"axes":[],"axez":1}`)); err == nil {
		t.Fatal("unknown sweep field parsed")
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("icache.sets=2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	want := Axis{Path: "icache.sets", Values: []any{float64(2), float64(4), float64(8)}}
	if !reflect.DeepEqual(ax, want) {
		t.Fatalf("ParseAxis = %+v, want %+v", ax, want)
	}

	ax, err = ParseAxis("scheme=2/optional,1/none")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Path != "scheme" || ax.Values[0] != "2/optional" || ax.Values[1] != "1/none" {
		t.Fatalf("scheme axis = %+v", ax)
	}

	for _, bad := range []string{"", "icache.sets", "=2", "icache.sets="} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

// TestParseSweepRejectsTrailingData: like Parse, a sweep definition is
// exactly one JSON value.
func TestParseSweepRejectsTrailingData(t *testing.T) {
	good := `{"axes":[{"path":"icache.sets","values":[2,4]}]}`
	if _, err := ParseSweep([]byte(good + "\n")); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	for _, tail := range []string{` {"junk": 1}`, ` garbage`, `}`} {
		if _, err := ParseSweep([]byte(good + tail)); err == nil {
			t.Errorf("sweep followed by %q parsed", tail)
		}
	}
}

// TestSweepPointCap: a cross product past MaxSweepPoints is rejected before
// any point is built (five 20-value axes, 3.2M points, used to exhaust
// memory during enumeration), and a small sweep still enumerates.
func TestSweepPointCap(t *testing.T) {
	for _, doc := range []string{oversizedSweep(5, 20), oversizedSweep(2, 65)} {
		sw, err := ParseSweep([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Points(); err == nil || !strings.Contains(err.Error(), "more than 4096 points") {
			t.Fatalf("%d-axis sweep: err = %v, want the point cap", len(sw.Axes), err)
		}
	}
	sw := Sweep{Axes: []Axis{{Path: "icache.sets", Values: []any{float64(2), float64(4)}}}}
	pts, err := sw.Points()
	if err != nil || len(pts) != 2 {
		t.Fatalf("2-point sweep: %d points, err %v", len(pts), err)
	}
}
