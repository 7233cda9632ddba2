package trace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

func TestRecorderCapturesRun(t *testing.T) {
	im, err := tinyc.Build(`
func main() {
	var i;
	i = 0;
	while (i < 20) { i = i + 1; }
	print(i);
}`, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(core.DefaultConfig(), nil)
	m.Load(im)
	var r Recorder
	r.Attach(m.CPU)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(r.Branches) < 20 {
		t.Fatalf("branch trace too short: %d", len(r.Branches))
	}
	taken := 0
	for _, e := range r.Branches {
		if e.Taken {
			taken++
		}
	}
	if taken == 0 || taken == len(r.Branches) {
		t.Fatal("branch trace has no outcome variety")
	}
}

func TestProfileMatchesReorganizerNumbering(t *testing.T) {
	src := `
func main() {
	var i;
	i = 0;
	while (i < 50) { i = i + 1; }
	if (i == 50) { print(0); }
	print(i);
}`
	im, err := tinyc.Build(src, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(core.DefaultConfig(), nil)
	m.Load(im)
	var r Recorder
	r.Attach(m.CPU)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	prof := Profile(im, r.Branches)
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	// The profile must contain a strongly-taken branch (the loop) and a
	// never-taken one (the dead if).
	var hasHot, hasCold bool
	for _, f := range prof {
		if f > 0.9 {
			hasHot = true
		}
		if f < 0.1 {
			hasCold = true
		}
	}
	if !hasHot || !hasCold {
		t.Fatalf("profile lacks expected shape: %v", prof)
	}
	// Rebuilding with the profile must still produce a correct program.
	im2, err := tinyc.Build(src, reorg.Default(), prof)
	if err != nil {
		t.Fatal(err)
	}
	m2 := core.New(core.DefaultConfig(), nil)
	m2.Load(im2)
	if _, err := m2.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m2.Output() != "0\n50\n" {
		t.Fatalf("profiled rebuild output %q", m2.Output())
	}
}

// icacheMissRate runs an address trace against an Icache configuration.
func icacheMissRate(cfg icache.Config, tr []isa.Word) float64 {
	mm := mem.New()
	e := ecache.New(ecache.DefaultConfig(), mm, mem.DefaultBus())
	ic := icache.New(cfg, e)
	for _, a := range tr {
		ic.Fetch(a)
	}
	return ic.Stats.MissRatio()
}

func TestSyntheticTraceShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SynthConfig
	}{
		{"pascal", PascalSynth(0)},
		{"lisp", LispSynth(0)},
		{"fp", FPSynth(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSynthesizer(tc.cfg)
			tr := s.Generate(200_000)
			if len(tr) != 200_000 {
				t.Fatalf("short trace: %d", len(tr))
			}
			// Addresses stay within the configured footprint.
			maxA := isa.Word(0)
			for _, a := range tr {
				if a > maxA {
					maxA = a
				}
			}
			if int(maxA) >= tc.cfg.CodeWords {
				t.Fatalf("address %d beyond footprint %d", maxA, tc.cfg.CodeWords)
			}
			// Sequentiality: most references are pc+1 (straight-line code).
			seq := 0
			for i := 1; i < len(tr); i++ {
				if tr[i] == tr[i-1]+1 {
					seq++
				}
			}
			frac := float64(seq) / float64(len(tr))
			if frac < 0.5 || frac > 0.95 {
				t.Fatalf("sequential fraction %.2f outside instruction-stream norms", frac)
			}
		})
	}
}

func TestSyntheticTracesReproduceIcachePaperNumbers(t *testing.T) {
	// The headline Icache calibration (experiment E2): on the large-program
	// traces, the chosen organization (double fetch) lands near the paper's
	// 12% miss ratio, and the single-fetch organization near the >20% that
	// made the team go looking for a fix.
	gen := func(cfg SynthConfig) []isa.Word {
		return NewSynthesizer(cfg).Generate(300_000)
	}
	traces := [][]isa.Word{gen(PascalSynth(0)), gen(LispSynth(0))}

	var single, double float64
	for _, tr := range traces {
		c1 := icache.DefaultConfig()
		c1.FetchBack = 1
		c2 := icache.DefaultConfig()
		single += icacheMissRate(c1, tr)
		double += icacheMissRate(c2, tr)
	}
	single /= float64(len(traces))
	double /= float64(len(traces))

	if single < 0.15 || single > 0.32 {
		t.Errorf("single-fetch miss ratio %.3f outside the paper's >20%% regime", single)
	}
	if double < 0.08 || double > 0.17 {
		t.Errorf("double-fetch miss ratio %.3f not near the paper's 12%%", double)
	}
	if double > single*0.70 {
		t.Errorf("double fetch reduced misses only %.3f→%.3f; paper says it 'almost halves'", single, double)
	}
}

func TestInterleave(t *testing.T) {
	a := []isa.Word{1, 2, 3, 4, 5}
	b := []isa.Word{10, 20}
	out, err := Interleave([][]isa.Word{a, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(a)+len(b) {
		t.Fatalf("interleave lost references: %d", len(out))
	}
	// Address spaces must not collide.
	if out[2] == 10 {
		t.Fatal("second program not offset into its own space")
	}
}

// TestInterleaveWideAddresses is the aliasing regression: with the fixed
// 2^24 stride a member address ≥ 2^24 landed inside the next member's
// space, so the interleave below used to map A's 2^24+5 and B's 5 to the
// SAME address (2^24+5). The stride must widen so the members stay disjoint.
func TestInterleaveWideAddresses(t *testing.T) {
	a := []isa.Word{1<<24 + 5}
	b := []isa.Word{5}
	out, err := Interleave([][]isa.Word{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("interleave produced %d refs, want 2", len(out))
	}
	if out[0] == out[1] {
		t.Fatalf("members aliased to %#x", out[0])
	}
	// The widened stride is the next power of two above the max address.
	const stride = 1 << 25
	if out[0] != a[0] || out[1] != b[0]+stride {
		t.Fatalf("layout %#x/%#x, want %#x/%#x", out[0], out[1], a[0], b[0]+stride)
	}
}

// TestInterleaveOverflow: enough members at a wide stride must error, not
// wrap distinct programs onto each other in the 32-bit address space.
func TestInterleaveOverflow(t *testing.T) {
	members := make([][]isa.Word, 300) // 300 × 2^24 > 2^32
	for i := range members {
		members[i] = []isa.Word{1}
	}
	if _, err := Interleave(members, 1); err == nil {
		t.Fatal("overflowing interleave did not error")
	}
}

// TestSynthesizerDeterministic pins the property the trace-driven sweeps'
// memo keys rely on: a trace is a pure function of its config and
// reference count.
func TestSynthesizerDeterministic(t *testing.T) {
	for _, cfg := range []SynthConfig{PascalSynth(0), LispSynth(0), FPSynth(0)} {
		a := NewSynthesizer(cfg).Generate(50_000)
		b := NewSynthesizer(cfg).Generate(50_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at ref %d: %d vs %d", cfg.Seed, i, a[i], b[i])
			}
		}
	}
}

// TestSynthesizerDegenerateConfigs is the regression test for the
// zero-function layout bug: a tiny CodeWords used to make every candidate
// function fail the minimum-size check, leaving the function table empty
// and Generate/pickCallee panicking in rand.Intn(0).
func TestSynthesizerDegenerateConfigs(t *testing.T) {
	for _, cw := range []int{0, 1, 2, 3, 4, 5} {
		cfg := SynthConfig{
			CodeWords: cw, Funcs: 8,
			AvgRun: 3, AvgLoopIters: 2, CallProb: 0.5,
			HotFuncs: 2, HotBias: 0.5, MaxDepth: 4, Seed: 7,
		}
		tr := NewSynthesizer(cfg).Generate(200) // must not panic
		if len(tr) != 200 {
			t.Fatalf("CodeWords=%d: short trace: %d", cw, len(tr))
		}
		for _, a := range tr {
			if int(a) >= minFuncWords && int(a) >= cw {
				t.Fatalf("CodeWords=%d: address %d beyond clamped footprint", cw, a)
			}
		}
	}
}

// TestInterleaveUnequalAndEmpty covers the multiprogramming merge with
// member traces of different lengths and an empty member.
func TestInterleaveUnequalAndEmpty(t *testing.T) {
	a := []isa.Word{1, 2, 3, 4, 5, 6, 7}
	b := []isa.Word{10, 20}
	var c []isa.Word // a program with no references at all
	out := mustInterleave(t, [][]isa.Word{a, b, c}, 3)
	if len(out) != len(a)+len(b) {
		t.Fatalf("interleave produced %d refs, want %d", len(out), len(a)+len(b))
	}
	// Each member's references appear in order, offset into its own space.
	const stride = 1 << 24
	var gotA, gotB []isa.Word
	for _, w := range out {
		switch {
		case w < stride:
			gotA = append(gotA, w)
		case w < 2*stride:
			gotB = append(gotB, w-stride)
		default:
			t.Fatalf("reference %#x attributed to the empty member", w)
		}
	}
	if len(gotA) != len(a) || len(gotB) != len(b) {
		t.Fatalf("member splits %d/%d, want %d/%d", len(gotA), len(gotB), len(a), len(b))
	}
	for i := range gotA {
		if gotA[i] != a[i] {
			t.Fatalf("member A out of order at %d", i)
		}
	}
	for i := range gotB {
		if gotB[i] != b[i] {
			t.Fatalf("member B out of order at %d", i)
		}
	}
	// The quantum bounds each turn: the first three refs are A's first
	// quantum, then B's whole (shorter) trace.
	if out[0] != 1 || out[1] != 2 || out[2] != 3 || out[3] != 10+stride {
		t.Fatalf("quantum structure broken: %v", out[:4])
	}

	// All-empty input terminates with an empty trace.
	if got := mustInterleave(t, [][]isa.Word{nil, nil}, 5); len(got) != 0 {
		t.Fatalf("all-empty interleave produced %d refs", len(got))
	}
}

func mustInterleave(t *testing.T, traces [][]isa.Word, q int) []isa.Word {
	t.Helper()
	out, err := Interleave(traces, q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
