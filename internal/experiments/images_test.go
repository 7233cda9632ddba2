package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// TestImageDigests pins the sha256 of every image the suite builds, base
// address and words, one line per image in testdata/image_digests.txt:
//   - the 15 benchmarks under each Table 1 scheme (E1, E3, E5, E9, the
//     explorer and mipsx-lint -suite);
//   - the profiled rebuilds of the integer suite under the shipped scheme
//     (E1, E6 and E7), each from the branches of its unprofiled run;
//   - the packed layouts scenario.Images makes for the default scenario
//     workloads (E12) and for every E11 node count;
//   - E5's and E8's hand-written assembly kernels;
//   - the CISC programs tinyc.GenerateVAX makes for the integer suite
//     (E3, E7 and E11), hashed as their instruction records.
//
// A toolchain change that keeps every line here keeps every image, so it
// cannot move a table, a memo key or a cycle. Regenerate with
// UPDATE_GOLDEN=1 only for a deliberate change to what the toolchain emits.
func TestImageDigests(t *testing.T) {
	var got []string
	pin := func(name string, im *asm.Image, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, uint32(im.Base))
		binary.Write(h, binary.LittleEndian, im.Words)
		got = append(got, fmt.Sprintf("%s %x", name, h.Sum(nil)))
	}

	for _, sc := range reorg.Table1Schemes() {
		for _, b := range tinyc.Benchmarks() {
			im, err := tinyc.Build(b.Source, sc, nil)
			pin("table1/"+sc.String()+"/"+b.Name, im, err)
		}
	}
	for _, b := range table1Benchmarks() {
		im, err := tinyc.Build(b.Source, reorg.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := core.New(spec.Default(), nil)
		m.Load(im)
		var rec trace.Recorder
		rec.Attach(m.CPU)
		if _, err := m.Run(runLimit); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		im, err = tinyc.Build(b.Source, reorg.Default(), trace.Profile(im, rec.Branches))
		pin("profiled/"+b.Name, im, err)
	}
	layouts := func(prefix string, progs []scenario.Program) {
		ims, err := scenario.Images(progs, reorg.Default())
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		for i, im := range ims {
			pin(prefix+"/"+progs[i].Name, im, nil)
		}
	}
	for _, w := range DefaultScenarioWorkloads() {
		layouts("scenario/"+w.Name, scenarioPrograms(w.Benches))
	}
	sieve, err := tinyc.BenchmarkByName("sieve")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range clusterSizes {
		progs := make([]scenario.Program, n)
		for j := range progs {
			progs[j] = scenario.Program{Name: fmt.Sprintf("node%d", j), Source: sieve.Source}
		}
		layouts(fmt.Sprintf("cluster/nodes=%d", n), progs)
	}
	for _, b := range table1Benchmarks() {
		code, err := tinyc.GenerateVAX(b.Source)
		if err != nil {
			t.Fatalf("vax/%s: %v", b.Name, err)
		}
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, code)
		got = append(got, fmt.Sprintf("vax/%s %x", b.Name, h.Sum(nil)))
	}
	for _, k := range []struct{ name, src string }{
		{"E5/ldf-stf", fpCopyDirect},
		{"E5/via-cpu", fpCopyViaCPU},
		{"E8/base-loop", trapLoop(trapIters, false)},
		{"E8/trap-loop", trapLoop(trapIters, true)},
		{"E8/branch-squash", handlerAsm + squashLoop},
		{"E8/overflow", handlerAsm + overflowKernel},
	} {
		im, err := asm.AssembleSource(k.src, 0)
		pin("asm/"+k.name, im, err)
	}

	golden := filepath.Join("testdata", "image_digests.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("image moved or is new: %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("pinned image changed or is no longer built: %s", line)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d images built, %d pinned", len(got), len(want))
	}
}
