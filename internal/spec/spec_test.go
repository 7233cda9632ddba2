package spec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/reorg"
)

// TestSpecJSONRoundTrip checks the canonical encoding round-trips: parse of
// the encoding reproduces the value and the digest exactly, for the default
// and a deliberately non-default spec.
func TestSpecJSONRoundTrip(t *testing.T) {
	other := Default()
	other.Branch = BranchSpec{Slots: 1, Squash: SquashNone}
	other.Pipeline.StickyOverflow = true
	other.ICache = other.ICache.WithFetch(4, 3)
	other.ICache.NoCacheCoproc = true
	other.ECache = SweepECache().WithRepl(ReplFIFO).WithWrite(WriteThrough).WithPrefetch(FetchTagged)
	other.Bus = BusSpec{Latency: 8, PerWord: 2}
	other.NoFPU = true
	for name, ms := range map[string]MachineSpec{"default": Default(), "other": other} {
		got, err := Parse(ms.CanonicalJSON())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != ms {
			t.Fatalf("%s: round trip changed the spec:\n got %+v\nwant %+v", name, got, ms)
		}
		if got.Digest() != ms.Digest() {
			t.Fatalf("%s: round trip changed the digest", name)
		}
	}
}

// TestParseRejectsUnknownFields pins the typo protection: a sweep or spec
// file with a misspelled field must fail, not silently configure nothing.
func TestParseRejectsUnknownFields(t *testing.T) {
	b := []byte(`{"branch":{"slots":2,"squash":"optional","slotz":1}}`)
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "slotz") {
		t.Fatalf("err = %v, want an unknown-field rejection naming slotz", err)
	}
}

// TestParseRejectsScenarioWindow: the window size is a run option, not part
// of the machine, so a scenario block that carries one is rejected.
func TestParseRejectsScenarioWindow(t *testing.T) {
	ms := Default()
	scn := DefaultScenario()
	ms.Scenario = &scn
	good := ms.CanonicalJSON()
	if _, err := Parse(good); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(good), `"switch_cost":64`, `"switch_cost":64,"window":4096`, 1)
	if bad == string(good) {
		t.Fatalf("scenario block not found in %s", good)
	}
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("err = %v, want an unknown-field rejection naming window", err)
	}
}

// TestValidateRejections is the rejection table: every constructor
// constraint surfaces as a named violation, and independent violations
// report together.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MachineSpec)
		want string
	}{
		{"bad-slots", func(ms *MachineSpec) { ms.Branch.Slots = 3 }, "branch.slots"},
		{"unknown-squash", func(ms *MachineSpec) { ms.Branch.Squash = "sometimes" }, "branch.squash"},
		{"npot-sets", func(ms *MachineSpec) { ms.ICache.Sets = 3 }, "icache.sets"},
		{"zero-ways", func(ms *MachineSpec) { ms.ICache.Ways = 0 }, "icache.ways"},
		{"npot-block", func(ms *MachineSpec) { ms.ICache.BlockWords = 12 }, "icache.block_words"},
		{"zero-fetchback", func(ms *MachineSpec) { ms.ICache.FetchBack = 0 }, "icache.fetch_back"},
		{"fetchback-over-block", func(ms *MachineSpec) { ms.ICache.FetchBack = 32 }, "icache.fetch_back"},
		{"zero-penalty", func(ms *MachineSpec) { ms.ICache.MissPenalty = 0 }, "icache.miss_penalty"},
		{"zero-esize", func(ms *MachineSpec) { ms.ECache.SizeWords = 0 }, "ecache geometry"},
		{"npot-line", func(ms *MachineSpec) { ms.ECache.LineWords = 3 }, "ecache.line_words"},
		{"npot-esets", func(ms *MachineSpec) { ms.ECache.SizeWords = 3 * 4096 }, "ecache.size_words"},
		{"unknown-repl", func(ms *MachineSpec) { ms.ECache.Repl = "mru" }, "ecache.repl"},
		{"unknown-write", func(ms *MachineSpec) { ms.ECache.Write = "write-around" }, "ecache.write"},
		{"unknown-fetch", func(ms *MachineSpec) { ms.ECache.Fetch = "streaming" }, "ecache.fetch"},
		{"negative-latemiss", func(ms *MachineSpec) { ms.ECache.LateMissExtra = -1 }, "ecache.late_miss_extra"},
		{"negative-bus", func(ms *MachineSpec) { ms.Bus.Latency = -1 }, "bus latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := Default()
			tc.mut(&ms)
			err := ms.Validate()
			if err == nil {
				t.Fatal("invalid spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a violation naming %q", err, tc.want)
			}
			if _, berr := ms.Build(); berr == nil {
				t.Fatal("invalid spec built")
			}
		})
	}

	// Multiple violations report together.
	ms := Default()
	ms.ICache.Ways = 0
	ms.ECache.Repl = "mru"
	err := ms.Validate()
	if err == nil || !strings.Contains(err.Error(), "icache.ways") || !strings.Contains(err.Error(), "ecache.repl") {
		t.Fatalf("err = %v, want both violations reported", err)
	}

	if err := Default().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

// TestGoldenTable1Digests pins the digest of every Table 1 design point.
// These digests are memo-key material (memoEpoch 3): a change here breaks
// replay of every recorded experiment cell, so it must be deliberate and
// come with a memoEpoch bump in internal/experiments.
func TestGoldenTable1Digests(t *testing.T) {
	golden := map[string]string{
		"2-slot no squash":       "5c40cc73223390b556ba95fdd02cb4382ca380e7531ccf9649599d092c0ace15",
		"2-slot always squash":   "377f114af3e064568e5815d5ecb450bf6174d0eedf2f453b7873f355141eb7dd",
		"2-slot squash optional": "ee53c05149a0ebb34232e06965eea9ad47b4f9cad4d78d18855b82b128667587",
		"1-slot no squash":       "6333abfa7a3e9167ccf63159b924cb83b11f5c9f0c0559940363c63b64785724",
		"1-slot always squash":   "a7c26f96ccdcd4ca186ade56c20e0ed2e6e4bf8218abb046207e1fc82948f652",
		"1-slot squash optional": "5e87a50df289fc2d9af5af7f8f28dc91e0505681e70163b4cdee505c6343961f",
	}
	for _, sc := range reorg.Table1Schemes() {
		want, ok := golden[sc.String()]
		if !ok {
			t.Fatalf("no golden digest for scheme %s", sc)
		}
		if got := Table1(sc).Digest(); got != want {
			t.Errorf("%s: digest %s, want %s (memo-key material — bump memoEpoch if deliberate)", sc, got, want)
		}
	}
	if d, def := Default().Digest(), Table1(reorg.Default()).Digest(); d != def {
		t.Errorf("Default() digest %s differs from the shipped Table 1 point %s", d, def)
	}
}

// TestBuildReproducesDefaultConfig pins the byte-identity contract behind
// the spec conversion: Default().Build() is core.DefaultConfig() literal for
// literal, so converting the experiments to specs changed no table.
func TestBuildReproducesDefaultConfig(t *testing.T) {
	got, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Default().Build() = %+v\ncore.DefaultConfig() = %+v", got, want)
	}
}

// TestSchemeRoundTrip checks Scheme/WithScheme/ParseScheme agree across
// every Table 1 scheme and both accepted string forms.
func TestSchemeRoundTrip(t *testing.T) {
	for _, sc := range reorg.Table1Schemes() {
		ms := Default().WithScheme(sc)
		got, err := ms.Scheme()
		if err != nil {
			t.Fatal(err)
		}
		if got != sc {
			t.Fatalf("WithScheme/Scheme round trip: got %v, want %v", got, sc)
		}
		if p, err := ParseScheme(sc.String()); err != nil || p != sc {
			t.Fatalf("ParseScheme(%q) = %v, %v", sc.String(), p, err)
		}
	}
	if sc, err := ParseScheme("2/optional"); err != nil || sc != reorg.Default() {
		t.Fatalf("ParseScheme(2/optional) = %v, %v", sc, err)
	}
	if _, err := ParseScheme("3/optional"); err == nil {
		t.Fatal("unknown scheme parsed")
	}
}

// TestICacheStateBits pins the area model against the shipped organization
// and degrades to 0 on invalid geometry instead of panicking.
func TestICacheStateBits(t *testing.T) {
	// 4 sets × 8 ways × 16 words: 512 data words ×32b + 512 valid bits +
	// 32 tags × (32-4-2)b = 16384 + 512 + 832.
	if got := Default().ICache.StateBits(); got != 17728 {
		t.Fatalf("shipped organization StateBits = %d, want 17728", got)
	}
	bad := Default().ICache
	bad.Sets = 3
	if got := bad.StateBits(); got != 0 {
		t.Fatalf("invalid geometry StateBits = %d, want 0", got)
	}
}

// TestParseRejectsTrailingData: a spec file is exactly one JSON value. A
// second value or stray text after it is an error, not silently ignored.
func TestParseRejectsTrailingData(t *testing.T) {
	good := Default().CanonicalJSON()
	for _, tail := range []string{` {"junk": 1}`, ` garbage`, `}`, `]`} {
		if _, err := Parse(append(append([]byte{}, good...), tail...)); err == nil {
			t.Errorf("spec followed by %q parsed", tail)
		}
	}
	if _, err := Parse(append(append([]byte{}, good...), " \n\t"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestCapacityBounds: a geometry whose cache state would exhaust memory is
// rejected by Validate — through Parse and through Patch — instead of
// killing the process in the constructor, while every preset passes.
func TestCapacityBounds(t *testing.T) {
	huge := Default()
	huge.ECache.SizeWords = 1 << 40
	if _, err := Parse(huge.CanonicalJSON()); err == nil || !strings.Contains(err.Error(), "ecache.size_words") {
		t.Errorf("1<<40-word Ecache through Parse: err = %v", err)
	}
	cases := []struct {
		path string
		v    float64
		want string
	}{
		{"ecache.size_words", 1 << 40, "ecache.size_words"},
		{"ecache.size_words", 1 << 23, "ecache.size_words"},
		{"icache.sets", 1 << 40, "icache geometry"},
		{"icache.ways", 1 << 62, "icache geometry"},
		{"icache.sets", 1 << 13, "icache geometry"},
	}
	for _, tc := range cases {
		if _, err := Default().Patch(tc.path, tc.v); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Patch(%s, %g): err = %v, want a violation naming %q", tc.path, tc.v, err, tc.want)
		}
	}
	presets := []MachineSpec{Default()}
	for _, ec := range []ECacheSpec{SweepECache(), IdealBackingECache()} {
		ms := Default()
		ms.ECache = ec
		presets = append(presets, ms)
	}
	for _, ms := range presets {
		if err := ms.Validate(); err != nil {
			t.Errorf("preset %+v rejected: %v", ms.ECache, err)
		}
	}
}
