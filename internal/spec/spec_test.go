package spec

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/mem"
	"repro/internal/reorg"
)

// TestSpecJSONRoundTrip checks the canonical encoding round-trips: parse of
// the encoding reproduces the value and the digest exactly, for the default
// and a deliberately non-default spec.
func TestSpecJSONRoundTrip(t *testing.T) {
	other := Default()
	other.Branch = reorg.Scheme{Slots: 1, Squash: reorg.NoSquash}
	other.Pipeline.StickyOverflow = true
	other.ICache = other.ICache.WithFetch(4, 3)
	other.ICache.NoCacheCoproc = true
	other.ECache = SweepECache().WithRepl(ecache.FIFO).WithWrite(ecache.WriteThrough).WithPrefetch(ecache.PrefetchTagged)
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
// constraint, and every enum value set in code past its names (which would
// not encode), surfaces in Validate as a named violation, and independent
// violations report together. An unknown enum name never reaches Validate:
// Parse rejects it while decoding, naming the value and the allowed names,
// and stops there, so a geometry fault in the same spec goes unreported.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MachineSpec)
		want string
	}{
		{"bad-slots", func(ms *MachineSpec) { ms.Branch.Slots = 3 }, "branch.slots"},
		{"squash-out-of-range", func(ms *MachineSpec) { ms.Branch.Squash = 3 }, "branch.squash: squash mode 3 is out of range"},
		{"npot-sets", func(ms *MachineSpec) { ms.ICache.Sets = 3 }, "icache.sets"},
		{"zero-ways", func(ms *MachineSpec) { ms.ICache.Ways = 0 }, "icache.ways"},
		{"npot-block", func(ms *MachineSpec) { ms.ICache.BlockWords = 12 }, "icache.block_words"},
		{"zero-fetchback", func(ms *MachineSpec) { ms.ICache.FetchBack = 0 }, "icache.fetch_back"},
		{"fetchback-over-block", func(ms *MachineSpec) { ms.ICache.FetchBack = 32 }, "icache.fetch_back"},
		{"zero-penalty", func(ms *MachineSpec) { ms.ICache.MissPenalty = 0 }, "icache.miss_penalty"},
		{"zero-esize", func(ms *MachineSpec) { ms.ECache.SizeWords = 0 }, "ecache geometry"},
		{"npot-line", func(ms *MachineSpec) { ms.ECache.LineWords = 3 }, "ecache.line_words"},
		{"npot-esets", func(ms *MachineSpec) { ms.ECache.SizeWords = 3 * 4096 }, "ecache.size_words"},
		{"repl-out-of-range", func(ms *MachineSpec) { ms.ECache.Repl = 3 }, "ecache.repl: replacement policy 3 is out of range"},
		{"write-out-of-range", func(ms *MachineSpec) { ms.ECache.Write = 2 }, "ecache.write: write policy 2 is out of range"},
		{"fetch-out-of-range", func(ms *MachineSpec) { ms.ECache.Fetch = 4 }, "ecache.fetch: fetch algorithm 4 is out of range"},
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
		})
	}

	// Unknown names, each an edit of Default's canonical JSON.
	good := string(Default().CanonicalJSON())
	for _, tc := range []struct{ name, old, new, want string }{
		{"unknown-squash", `"squash":"optional"`, `"squash":"sometimes"`, `unknown squash mode "sometimes", want one of none, always, optional`},
		{"unknown-repl", `"repl":"lru"`, `"repl":"mru"`, `unknown replacement policy "mru", want one of lru, fifo, random`},
		{"unknown-write", `"write":"copy-back"`, `"write":"write-around"`, `unknown write policy "write-around", want one of copy-back, write-through`},
		{"unknown-fetch", `"fetch":"demand"`, `"fetch":"streaming"`, `unknown fetch algorithm "streaming", want one of demand, always, on-miss, tagged`},
		{"repl-wrong-case", `"repl":"lru"`, `"repl":"LRU"`, `unknown replacement policy "LRU"`},
		{"empty-fetch", `"fetch":"demand"`, `"fetch":""`, `unknown fetch algorithm ""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(good, tc.old, tc.new, 1)
			if bad == good {
				t.Fatalf("%s not found in %s", tc.old, good)
			}
			if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}

	// Multiple violations report together.
	ms := Default()
	ms.ICache.Ways = 0
	ms.ECache.Repl = 3
	err := ms.Validate()
	if err == nil || !strings.Contains(err.Error(), "icache.ways") || !strings.Contains(err.Error(), "ecache.repl") {
		t.Fatalf("err = %v, want both violations reported", err)
	}
	// An unknown name stops decoding before Validate sees the zero ways.
	both := strings.Replace(strings.Replace(good, `"repl":"lru"`, `"repl":"mru"`, 1), `"ways":8`, `"ways":0`, 1)
	if _, err := Parse([]byte(both)); err == nil || !strings.Contains(err.Error(), "mru") || strings.Contains(err.Error(), "icache.ways") {
		t.Fatalf("unknown name and zero ways: err = %v, want the name alone", err)
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

// TestGoldenSubSpecDigests pins the canonical JSON and digest of the Icache
// and Ecache sub-specs the trace-driven cells key on: the shipped Icache and
// E2's five fetch organizations (E2 and E6 memo keys), and the three Ecache
// presets (E2/E6 backing store, E10 ablation baseline). Like the Table 1
// digests they are memo-key material.
func TestGoldenSubSpecDigests(t *testing.T) {
	icPin := func(ic icache.Config) (string, string) {
		b, err := json.Marshal(ic)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), ICacheDigest(ic)
	}
	ecPin := func(ec ecache.Config) (string, string) {
		b, err := json.Marshal(ec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), ECacheDigest(ec)
	}
	ic := Default().ICache
	cases := []struct {
		name               string
		gotJSON, gotDigest string
		json, digest       string
	}{
		{name: "icache default", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":2,"miss_penalty":2}`,
			digest: "98d11025c6f9e6c7ba7a80446f5a70ab5af7968e679be8d9e846396119b84c14"},
		{name: "icache fetch 1/2", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":1,"miss_penalty":2}`,
			digest: "540b513d9ad6901110e28a99c83b00121539daac620ecdec0ff5003d9183dbd7"},
		{name: "icache fetch 2/2", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":2,"miss_penalty":2}`,
			digest: "98d11025c6f9e6c7ba7a80446f5a70ab5af7968e679be8d9e846396119b84c14"},
		{name: "icache fetch 3/2", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":3,"miss_penalty":2}`,
			digest: "b377eb1ba5a89870f95bcea70e9f17fe2eee03390236787f95ed6ede71ae79cc"},
		{name: "icache fetch 2/3", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":2,"miss_penalty":3}`,
			digest: "f053a21271e17d367972c08514fca74c171f4c1a2d5228a308c3793f9918979d"},
		{name: "icache fetch 1/3", json: `{"sets":4,"ways":8,"block_words":16,"fetch_back":1,"miss_penalty":3}`,
			digest: "0ca8fdcd91f4d28544e9c66786175a0d02199db44c9bec65ae7cf486e5bb8553"},
		{name: "ecache default", json: `{"size_words":65536,"line_words":4,"ways":1,"repl":"lru","write":"copy-back","fetch":"demand","late_miss_extra":1}`,
			digest: "825bab5eebeb9f2db2ff05ace6784c4784728f46aceb7b7b6c7bbae5d7907bd2"},
		{name: "ecache sweep", json: `{"size_words":16384,"line_words":4,"ways":2,"repl":"lru","write":"copy-back","fetch":"demand","late_miss_extra":0}`,
			digest: "8e8c8ea9c49751bdecafdead1f4763a59ec95f7008a095ef089c8c718562d01e"},
		{name: "ecache ideal backing", json: `{"size_words":4,"line_words":4,"ways":1,"repl":"lru","write":"copy-back","fetch":"demand","late_miss_extra":0}`,
			digest: "d0b07128bca0f579f0d6d56000a839b734b489a61a24298ec737152c1d1f6a73"},
	}
	cases[0].gotJSON, cases[0].gotDigest = icPin(ic)
	for i, f := range [][2]int{{1, 2}, {2, 2}, {3, 2}, {2, 3}, {1, 3}} {
		cases[1+i].gotJSON, cases[1+i].gotDigest = icPin(ic.WithFetch(f[0], f[1]))
	}
	for i, ec := range []ecache.Config{Default().ECache, SweepECache(), IdealBackingECache()} {
		cases[6+i].gotJSON, cases[6+i].gotDigest = ecPin(ec)
	}
	for _, c := range cases {
		if c.gotJSON != c.json {
			t.Errorf("%s: JSON %s, want %s", c.name, c.gotJSON, c.json)
		}
		if c.gotDigest != c.digest {
			t.Errorf("%s: digest %s, want %s (memo-key material — bump memoEpoch if deliberate)", c.name, c.gotDigest, c.digest)
		}
	}
}

// TestBuildReproducesDefaultConfig pins the one default that is still
// written twice, in the spec and in the package that builds it: the bus
// timing (mem.Bus also carries run-time state, so the spec cannot hold
// one). Layer probes that build the bus directly (mem.DefaultBus) then
// measure the machine the spec names.
func TestBuildReproducesDefaultConfig(t *testing.T) {
	bus := mem.DefaultBus()
	if got, want := Default().Bus, (BusSpec{Latency: bus.Latency, PerWord: bus.PerWord}); got != want {
		t.Errorf("Default().Bus = %+v, mem.DefaultBus() timing = %+v", got, want)
	}
}

// TestSchemeRoundTrip checks WithScheme, ParseScheme and the spec's
// encoding agree across every Table 1 scheme and both accepted string
// forms.
func TestSchemeRoundTrip(t *testing.T) {
	for _, sc := range reorg.Table1Schemes() {
		ms := Default().WithScheme(sc)
		if ms.Branch != sc {
			t.Fatalf("WithScheme(%v).Branch = %v", sc, ms.Branch)
		}
		if got, err := Parse(ms.CanonicalJSON()); err != nil || got.Branch != sc {
			t.Fatalf("%v through its JSON: %v, %v", sc, got.Branch, err)
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

// TestICacheStateBits pins the explorer's area model against the shipped
// organization.
func TestICacheStateBits(t *testing.T) {
	// 4 sets × 8 ways × 16 words: 512 data words ×32b + 512 valid bits +
	// 32 tags × (32-4-2)b = 16384 + 512 + 832.
	if got := Default().ICache.StateBits(); got != 17728 {
		t.Fatalf("shipped organization StateBits = %d, want 17728", got)
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
	for _, ec := range []ecache.Config{SweepECache(), IdealBackingECache()} {
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
