package spec

import (
	"testing"

	"repro/internal/reorg"
)

// FuzzSpecParse fuzzes the spec JSON boundary (what mipsx-run -spec and
// mipsx-explore -base/-sweep read). Parse must never panic, and a spec it
// accepts must re-parse from its canonical encoding to the same digest and
// realize into a machine config without error.
func FuzzSpecParse(f *testing.F) {
	f.Add(Default().CanonicalJSON())
	for _, sc := range reorg.Table1Schemes() {
		f.Add(Table1(sc).CanonicalJSON())
	}
	withScenario := Default()
	scn := DefaultScenario()
	scn.Window = 4096
	withScenario.Scenario = &scn
	f.Add(withScenario.CanonicalJSON())
	f.Add(append(Default().CanonicalJSON(), ` {"junk": 1}`...))
	f.Add(append(Default().CanonicalJSON(), ` garbage`...))
	huge := Default()
	huge.ECache.SizeWords = 1 << 40
	f.Add(huge.CanonicalJSON())

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
		if _, err := ms.Build(); err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
	})
}
