package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/jsondoc"
	"repro/internal/obs"
)

// docParsers are the schema-checked document parsers, each returning the
// value jsondoc.Marshal writes back. seed is a document of that schema: a
// committed golden, or what `mipsx-run -bench bubblesort -breakdown-out /
// -profile-out` writes (testdata/).
var docParsers = []struct {
	schema, seed string
	parse        func([]byte) (any, error)
}{
	{BenchSchema, "../../BENCH_baseline.json", func(b []byte) (any, error) { return ParseBenchDoc(b) }},
	{ExploreSchema, "../../EXPLORE_baseline.json", func(b []byte) (any, error) { return ParseExploreDoc(b) }},
	{ScenarioSchema, "../../SCENARIO_baseline.json", func(b []byte) (any, error) { return ParseScenarioDoc(b) }},
	{obs.ReportSchema, "testdata/bubblesort_breakdown.json", func(b []byte) (any, error) { return obs.ParseReport(b) }},
	{obs.PCProfileSchema, "testdata/bubblesort_profile.json", func(b []byte) (any, error) {
		p, err := obs.ParsePCProfile(b)
		if err != nil {
			return nil, err
		}
		return p.Doc(), nil
	}},
}

// withUnknownField inserts a field no document declares as the first one.
func withUnknownField(doc []byte) []byte {
	return append([]byte(`{"experimentz": 1, `), bytes.TrimPrefix(bytes.TrimSpace(doc), []byte("{"))...)
}

// TestDocumentsParseStrictly: every committed document (BENCH_pr.json
// included) and seed parses, and each parser and the window-stream decoder
// reject the same document with an unknown field.
func TestDocumentsParseStrictly(t *testing.T) {
	pr, err := os.ReadFile("../../BENCH_pr.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBenchDoc(pr); err != nil {
		t.Errorf("BENCH_pr.json: %v", err)
	}
	for _, p := range docParsers {
		seed, err := os.ReadFile(p.seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.parse(seed); err != nil {
			t.Errorf("%s: %v", p.seed, err)
		}
		if _, err := p.parse(withUnknownField(seed)); err == nil || !strings.Contains(err.Error(), "experimentz") {
			t.Errorf("%s with an unknown field: err = %v, want it named", p.seed, err)
		}
	}
	const window = `{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}`
	stream := `{"schema":"mipsx-obswin/v1","window":16}` + "\n" + window + "\n"
	if _, err := obs.ParseWindowStream(strings.NewReader(stream)); err != nil {
		t.Fatalf("window stream: %v", err)
	}
	for _, bad := range []string{
		`{"experimentz": 1, "schema":"mipsx-obswin/v1","window":16}` + "\n" + window + "\n",
		`{"schema":"mipsx-obswin/v1","window":16}` + "\n" + string(withUnknownField([]byte(window))) + "\n",
	} {
		if _, err := obs.ParseWindowStream(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "experimentz") {
			t.Errorf("window stream with an unknown field: err = %v, want it named\n%s", err, bad)
		}
	}
}

// FuzzDocuments feeds arbitrary bytes to every document parser. No input
// panics; a document is accepted only by the parser of its own schema; an
// accepted document is a fixed point after one normalization,
// Marshal(Parse(Marshal(Parse(b)))) == Marshal(Parse(b)); and an accepted
// PC profile keeps every row it was given. Seeds are each parser's seed
// document and its wrong-schema, unknown-field and trailing-data variants.
func FuzzDocuments(f *testing.F) {
	for i, p := range docParsers {
		seed, err := os.ReadFile(p.seed)
		if err != nil {
			f.Fatal(err)
		}
		other := docParsers[(i+1)%len(docParsers)].schema
		f.Add(seed)
		f.Add(bytes.Replace(seed, []byte(`"`+p.schema+`"`), []byte(`"`+other+`"`), 1))
		f.Add(withUnknownField(seed))
		f.Add(append(bytes.Clone(seed), `{"schema": "`+p.schema+`"}`...))
	}
	f.Add([]byte(`{"schema":"mipsx-pcprofile/v1","entries":[{"pc":4,"wb":5},{"pc":4,"wb":7},{"pc":2,"wb":1}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, p := range docParsers {
			v, err := p.parse(b)
			if err != nil {
				continue
			}
			if schema, _ := jsondoc.Schema(b); schema != p.schema {
				t.Fatalf("accepted as %s a document of schema %q", p.schema, schema)
			}
			once, err := jsondoc.Marshal(v)
			if err != nil {
				t.Fatalf("%s: accepted document does not marshal: %v", p.schema, err)
			}
			again, err := p.parse(once)
			if err != nil {
				t.Fatalf("%s: normalized document does not parse: %v\n%s", p.schema, err, once)
			}
			twice, err := jsondoc.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: normalization is not a fixed point:\n%s\n---\n%s", p.schema, once, twice)
			}
			if p.schema == obs.PCProfileSchema {
				var given obs.PCProfileDoc
				if err := jsondoc.Decode(b, &given); err != nil {
					t.Fatal(err)
				}
				if kept := len(v.(*obs.PCProfileDoc).Entries); kept != len(given.Entries) {
					t.Fatalf("pc profile kept %d of %d rows", kept, len(given.Entries))
				}
			}
		}
	})
}
