// Package repro's top-level benchmarks regenerate every table and figure in
// the paper's evaluation (run with `go test -bench=. -benchmem`). Each
// BenchmarkE* target prints its paper-style table once and then measures the
// cost of regenerating it cold: every iteration runs on a fresh engine, so
// no result or capture carries over from an earlier iteration or benchmark,
// and only the process-wide build cache stays warm. The
// Benchmark<Substrate> targets measure the simulator substrates themselves.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/experiments"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/mem"
	"repro/internal/reorg"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

func runExperiment(b *testing.B, fn func() (*experiments.Table, error)) {
	b.Helper()
	defer experiments.Configure(0, 0, false)
	for i := 0; i < b.N; i++ {
		experiments.Configure(0, 0, false)
		tb, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tb.String())
		}
	}
}

// BenchmarkTable1BranchSchemes regenerates paper Table 1 (experiment E1).
func BenchmarkTable1BranchSchemes(b *testing.B) {
	runExperiment(b, experiments.Table1BranchSchemes)
}

// BenchmarkIcacheDesign regenerates the Icache design study (E2).
func BenchmarkIcacheDesign(b *testing.B) {
	runExperiment(b, experiments.IcacheDesign)
}

// BenchmarkBranchConditionStats regenerates the condition-code statistics (E3).
func BenchmarkBranchConditionStats(b *testing.B) {
	runExperiment(b, experiments.BranchConditionStats)
}

// BenchmarkBranchCacheVsStatic regenerates the prediction study (E4).
func BenchmarkBranchCacheVsStatic(b *testing.B) {
	runExperiment(b, experiments.BranchCacheVsStatic)
}

// BenchmarkCoprocessorSchemes regenerates the coprocessor interface study (E5).
func BenchmarkCoprocessorSchemes(b *testing.B) {
	runExperiment(b, experiments.CoprocessorSchemes)
}

// BenchmarkSustainedThroughput regenerates the throughput accounting (E6).
func BenchmarkSustainedThroughput(b *testing.B) {
	runExperiment(b, experiments.SustainedThroughput)
}

// BenchmarkVAXComparison regenerates the CISC comparison (E7).
func BenchmarkVAXComparison(b *testing.B) {
	runExperiment(b, experiments.VAXComparison)
}

// BenchmarkExceptionHandling regenerates the exception study (E8, Figures 3–4).
func BenchmarkExceptionHandling(b *testing.B) {
	runExperiment(b, experiments.ExceptionHandling)
}

// BenchmarkMemoryBandwidth regenerates the bandwidth motivation (E9).
func BenchmarkMemoryBandwidth(b *testing.B) {
	runExperiment(b, experiments.MemoryBandwidth)
}

// BenchmarkEcacheAblations regenerates the external-cache ablations (E10).
func BenchmarkEcacheAblations(b *testing.B) {
	runExperiment(b, experiments.EcacheAblations)
}

// BenchmarkMultiprocessorScaling regenerates the cluster-scaling extension (E11).
func BenchmarkMultiprocessorScaling(b *testing.B) {
	runExperiment(b, experiments.MultiprocessorScaling)
}

// BenchmarkESuiteSerial regenerates the entire evaluation with the
// experiment engine pinned to one worker — the reference configuration
// BENCH_baseline.json is recorded at.
func BenchmarkESuiteSerial(b *testing.B) {
	benchAll(b, 1)
}

// BenchmarkESuiteParallel regenerates the entire evaluation at full
// parallelism; the ratio to BenchmarkESuiteSerial is the engine's speedup
// on this machine (≈1 on a single-core runner, ≥2 on multi-core CI).
func BenchmarkESuiteParallel(b *testing.B) {
	benchAll(b, 0)
}

func benchAll(b *testing.B, workers int) {
	b.Helper()
	defer experiments.Configure(0, 0, false)
	for i := 0; i < b.N; i++ {
		experiments.Configure(workers, 0, false)
		if _, err := experiments.All(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkSimulatorThroughput measures simulated cycles per second on the
// full machine running the sieve benchmark.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var src string
	for _, bench := range tinyc.Benchmarks() {
		if bench.Name == "sieve" {
			src = bench.Source
		}
	}
	im, err := tinyc.Build(src, reorg.Default(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m := core.New(core.DefaultConfig(), nil)
		m.Load(im)
		c, err := m.Run(50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkPipelineStep measures the cost of one pipeline cycle.
func BenchmarkPipelineStep(b *testing.B) {
	m := core.New(core.DefaultConfig(), nil)
	if err := m.LoadSource("main:\tb main\n\tnop\n\tnop\n"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CPU.Step()
	}
}

// BenchmarkIcacheFetch measures the Icache fast path.
func BenchmarkIcacheFetch(b *testing.B) {
	mm := mem.New()
	e := ecache.New(ecache.DefaultConfig(), mm, mem.DefaultBus())
	ic := icache.New(icache.DefaultConfig(), e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.Fetch(isa.Word(i & 255))
	}
}

// BenchmarkEcacheRead measures the Ecache fast path.
func BenchmarkEcacheRead(b *testing.B) {
	e := ecache.New(ecache.DefaultConfig(), mem.New(), mem.DefaultBus())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Read(isa.Word(i & 4095))
	}
}

// BenchmarkAssemble measures the assembler on the compiled sieve program.
func BenchmarkAssemble(b *testing.B) {
	var src string
	for _, bench := range tinyc.Benchmarks() {
		if bench.Name == "sieve" {
			src = bench.Source
		}
	}
	c, err := tinyc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.AssembleSource(c.Asm, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileAndReorganize measures the full software toolchain.
func BenchmarkCompileAndReorganize(b *testing.B) {
	var src string
	for _, bench := range tinyc.Benchmarks() {
		if bench.Name == "bubblesort" {
			src = bench.Source
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tinyc.Build(src, reorg.Default(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintCheckImage measures static-verifier throughput on the
// largest compiled benchmark: every hazard rule plus the scheduling-quality
// warnings over the full delay-slot-aware CFG.
func BenchmarkLintCheckImage(b *testing.B) {
	im := builtBenchmark(b, "quicksort")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := lint.CheckImage(im, lint.Config{Slots: 2}); rep.HasErrors() {
			b.Fatalf("suite image has errors:\n%s", rep)
		}
	}
}

// BenchmarkLintAnalyzeCost measures the static cycle-cost analyzer: block
// partitioning plus per-block base-cycle costing on the same graph.
func BenchmarkLintAnalyzeCost(b *testing.B) {
	im := builtBenchmark(b, "quicksort")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := lint.AnalyzeCost(im, lint.Config{Slots: 2}); !rep.Exact() {
			b.Fatalf("suite image unmodeled: %v", rep.Unmodeled)
		}
	}
}

func builtBenchmark(b *testing.B, name string) *asm.Image {
	b.Helper()
	for _, bench := range tinyc.Benchmarks() {
		if bench.Name == name {
			im, err := tinyc.Build(bench.Source, reorg.Default(), nil)
			if err != nil {
				b.Fatal(err)
			}
			return im
		}
	}
	b.Fatalf("no benchmark %q", name)
	return nil
}

// BenchmarkTraceSynthesis measures the synthetic trace generator.
func BenchmarkTraceSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := trace.NewSynthesizer(trace.PascalSynth(0))
		tr := s.Generate(100_000)
		if len(tr) != 100_000 {
			b.Fatal("short trace")
		}
	}
}

// TestBenchTargetsExist is a cheap guard that the experiment table headers
// stay stable for the documentation.
func TestBenchTargetsExist(t *testing.T) {
	tb, err := experiments.MemoryBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tb.ID, "E9") {
		t.Fatalf("unexpected id %s", tb.ID)
	}
}
