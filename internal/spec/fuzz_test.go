package spec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/reorg"
)

// FuzzSpecParse fuzzes the spec JSON boundary (what mipsx-run -spec and
// mipsx-explore -base/-sweep read). Parse must never panic, and a spec it
// accepts must re-parse from its canonical encoding to the same digest.
func FuzzSpecParse(f *testing.F) {
	f.Add(Default().CanonicalJSON())
	for _, sc := range reorg.Table1Schemes() {
		f.Add(Table1(sc).CanonicalJSON())
	}
	withScenario := Default()
	scn := DefaultScenario()
	withScenario.Scenario = &scn
	f.Add(withScenario.CanonicalJSON())
	f.Add(append(Default().CanonicalJSON(), ` {"junk": 1}`...))
	f.Add(append(Default().CanonicalJSON(), ` garbage`...))
	huge := Default()
	huge.ECache.SizeWords = 1 << 40
	f.Add(huge.CanonicalJSON())
	for _, b := range enumSpecs() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		ms, err := Parse(b)
		if err != nil {
			return
		}
		again, err := Parse(ms.CanonicalJSON())
		if err != nil {
			t.Fatalf("accepted spec does not re-parse from its canonical JSON: %v\n%s", err, ms.CanonicalJSON())
		}
		if again.Digest() != ms.Digest() {
			t.Fatalf("digest changed across a canonical round trip:\n%s\n%s", ms.CanonicalJSON(), again.CanonicalJSON())
		}
	})
}

// FuzzSweep fuzzes the sweep boundary mipsx-explore reads: arbitrary bytes
// through ParseSweep (-sweep) and arbitrary strings through ParseAxis
// (-axis) over Default(). Nothing panics; Points returns at most
// MaxSweepPoints points, each of which validates; and an accepted sweep
// document survives json.Marshal then ParseSweep unchanged.
func FuzzSweep(f *testing.F) {
	for _, sw := range []string{
		`{"axes":[{"path":"icache.sets","values":[2,4,8]},{"path":"icache.fetch_back","values":[1,2]}]}`,
		`{"axes":[{"path":"scheme","values":["2/optional","1/none"]}]}`,
		`{"axes":[{"path":"scenario.quantum","values":[2000,20000]},{"path":"scenario.policy","values":["flush","pid"]}]}`,
		`{"base":` + string(Default().CanonicalJSON()) + `,"axes":[{"path":"ecache.repl","values":["lru","fifo"]}]}`,
		oversizedSweep(5, 20),
	} {
		f.Add([]byte(sw), "")
	}
	for _, ax := range []string{
		"icache.sets=2,4,8", "icache.fetch_back=1,2", "scheme=2/optional,1/none",
		"scenario.quantum=2000,20000", "scenario.policy=flush,pid", "bus.latency=x,", "=1",
	} {
		f.Add([]byte(`{"axes":[]}`), ax)
	}
	for _, b := range enumSpecs() {
		f.Add([]byte(`{"base":`+string(b)+`,"axes":[]}`), "")
	}
	for _, e := range enumFields {
		f.Add([]byte(`{"axes":[]}`), e.path+"="+strings.Join(e.names, ","))
	}
	check := func(t *testing.T, sw Sweep) {
		pts, err := sw.Points()
		if err != nil {
			return
		}
		if len(pts) > MaxSweepPoints {
			t.Fatalf("Points returned %d points, cap %d", len(pts), MaxSweepPoints)
		}
		for _, p := range pts {
			if err := p.Spec.Validate(); err != nil {
				t.Fatalf("point %s does not validate: %v", p.Label(), err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, axis string) {
		if sw, err := ParseSweep(b); err == nil {
			enc, err := json.Marshal(sw)
			if err != nil {
				t.Fatalf("accepted sweep does not marshal: %v", err)
			}
			again, err := ParseSweep(enc)
			if err != nil {
				t.Fatalf("accepted sweep does not re-parse: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(again, sw) {
				t.Fatalf("sweep changed across Marshal and ParseSweep:\n%#v\n%#v", sw, again)
			}
			check(t, sw)
		}
		if ax, err := ParseAxis(axis); err == nil {
			check(t, Sweep{Axes: []Axis{ax}})
		}
	})
}

// enumFields lists each enum field of the spec with every name it accepts
// and, last, one it rejects.
var enumFields = []struct {
	path, def string
	names     []string
}{
	{"branch.squash", "optional", []string{"none", "always", "optional", "sometimes"}},
	{"ecache.repl", "lru", []string{"lru", "fifo", "random", "mru"}},
	{"ecache.write", "copy-back", []string{"copy-back", "write-through", "write-around"}},
	{"ecache.fetch", "demand", []string{"demand", "always", "on-miss", "tagged", "streaming"}},
}

// enumSpecs is Default's canonical JSON with one enum field set to each
// name enumFields lists.
func enumSpecs() [][]byte {
	good := string(Default().CanonicalJSON())
	var out [][]byte
	for _, e := range enumFields {
		field := e.path[strings.LastIndex(e.path, ".")+1:]
		for _, n := range e.names {
			out = append(out, []byte(strings.Replace(good, `"`+field+`":"`+e.def+`"`, `"`+field+`":"`+n+`"`, 1)))
		}
	}
	return out
}

// oversizedSweep is a sweep document of n axes with v values each.
func oversizedSweep(n, v int) string {
	paths := []string{"icache.sets", "icache.ways", "ecache.size_words", "bus.latency", "bus.per_word", "scenario.quantum"}
	var axes []string
	for i := 0; i < n; i++ {
		vals := make([]string, v)
		for j := range vals {
			vals[j] = strconv.Itoa(j + 1)
		}
		axes = append(axes, fmt.Sprintf(`{"path":%q,"values":[%s]}`, paths[i%len(paths)], strings.Join(vals, ",")))
	}
	return `{"axes":[` + strings.Join(axes, ",") + `]}`
}
