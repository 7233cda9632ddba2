package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// TestStatsZeroValueHelpers is the divide-by-zero regression net: every
// ratio helper on the aggregated and per-unit Stats must return a finite
// zero on a machine that never ran, not NaN or ±Inf (machine.go's
// IfetchCost comment points here).
func TestStatsZeroValueHelpers(t *testing.T) {
	finiteZero := func(name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s on zero stats = %v, want finite 0", name, v)
		}
		if v != 0 {
			t.Errorf("%s on zero stats = %v, want 0", name, v)
		}
	}
	var s Stats
	finiteZero("Stats.IfetchCost", s.IfetchCost())
	finiteZero("Stats.CPI", s.CPI())
	finiteZero("Stats.SustainedMIPS", s.SustainedMIPS())
	finiteZero("Stats.PinBandwidthMW", s.PinBandwidthMW())
	finiteZero("Stats.DemandBandwidthMW", s.DemandBandwidthMW())
	var p pipeline.Stats
	finiteZero("pipeline.Stats.CPI", p.CPI())
	finiteZero("pipeline.Stats.NopFraction", p.NopFraction())
	finiteZero("pipeline.Stats.CyclesPerBranch", p.CyclesPerBranch())
	var ic icache.Stats
	finiteZero("icache.Stats.MissRatio", ic.MissRatio())
	finiteZero("icache.Stats.FetchCost", ic.FetchCost())
	var ec ecache.Stats
	finiteZero("ecache.Stats.MissRatio", ec.MissRatio())
	finiteZero("ecache.Stats.TransferRatio", ec.TransferRatio())
}

// traceProgram is the golden-trace workload (testdata/trace_program.s). make
// stream-gate runs the same file through mipsx-run -trace-out and compares
// the result with the same golden.
func traceProgram(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "trace_program.s"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tracedRun executes traceProgram with a full sink (ledger + tracer with
// instruction spans streaming into the returned bytes) attached.
func tracedRun(t *testing.T) (*Machine, []byte) {
	t.Helper()
	m := New(DefaultConfig(), nil)
	s := obs.NewMachineSink()
	s.Tracer = &obs.Tracer{Instrs: true}
	var trace bytes.Buffer
	if err := s.Tracer.StartStream(&trace, 0); err != nil {
		t.Fatal(err)
	}
	m.Observe(s)
	if err := m.LoadSource(traceProgram(t)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := m.VerifyAttribution(); err != nil {
		t.Fatal(err)
	}
	if err := s.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	return m, trace.Bytes()
}

// TestTraceGolden locks the emitted Chrome trace-event JSON byte-for-byte.
// The simulator is deterministic, the tracer's field order is fixed, and
// timestamps are simulated cycles, so two runs of the same program must
// serialize identically — regenerate with UPDATE_GOLDEN=1 after an
// intentional trace-format change.
func TestTraceGolden(t *testing.T) {
	_, trace := tracedRun(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, trace, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(trace, want) {
		t.Fatalf("trace JSON drifted from %s (%d vs %d bytes); regenerate with UPDATE_GOLDEN=1 if intentional",
			golden, len(trace), len(want))
	}
}

// TestTraceSchemaValid validates the emitted JSON against the Chrome
// trace-event contract Perfetto loads: a traceEvents array whose entries
// carry the phase-appropriate fields.
func TestTraceSchemaValid(t *testing.T) {
	_, trace := tracedRun(t)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *float64          `json:"ts"`
			Dur  *float64          `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	var spans, instants, meta int
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.Ts == nil || ev.Dur == nil {
				t.Fatalf("span %d (%s) missing ts/dur", i, ev.Name)
			}
		case "i":
			instants++
			if ev.Ts == nil {
				t.Fatalf("instant %d (%s) missing ts", i, ev.Name)
			}
		case "M":
			meta++
			if ev.Args["name"] == "" {
				t.Fatalf("metadata %d missing args.name", i)
			}
		default:
			t.Fatalf("event %d (%s) has unsupported phase %q", i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("trace lacks a phase: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
}

// TestVerifyAttributionDetectsViolation proves the conservation check has
// teeth: corrupting the ledger by one cycle must fail verification.
func TestVerifyAttributionDetectsViolation(t *testing.T) {
	m, _ := tracedRun(t)
	m.Obs.Ledger.Add(obs.CauseExecute, 1)
	if err := m.VerifyAttribution(); err == nil {
		t.Fatal("tampered ledger passed VerifyAttribution")
	}
	if err := m.ObsReport().Check(); err == nil {
		t.Fatal("tampered ledger passed Report.Check")
	}
}

// TestObservationDoesNotChangeCycles runs the same program with and without
// a sink: observation must be pure — identical cycle counts, outputs and
// per-unit counters.
func TestObservationDoesNotChangeCycles(t *testing.T) {
	runIt := func(observe bool) *Machine {
		m := New(DefaultConfig(), nil)
		if observe {
			s := obs.NewMachineSink()
			s.Tracer = &obs.Tracer{Instrs: true}
			if err := s.Tracer.StartStream(io.Discard, 0); err != nil {
				t.Fatal(err)
			}
			m.Observe(s)
		}
		if err := m.LoadSource(traceProgram(t)); err != nil {
			t.Fatalf("load: %v", err)
		}
		if _, err := m.Run(100000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return m
	}
	plain, traced := runIt(false), runIt(true)
	if plain.CPU.Stats != traced.CPU.Stats {
		t.Errorf("pipeline stats changed under observation:\nplain  %+v\ntraced %+v", plain.CPU.Stats, traced.CPU.Stats)
	}
	if plain.ICache.Stats != traced.ICache.Stats {
		t.Errorf("icache stats changed under observation")
	}
	if plain.ECache.Stats != traced.ECache.Stats {
		t.Errorf("ecache stats changed under observation")
	}
	if plain.Output() != traced.Output() {
		t.Errorf("output changed under observation: %q vs %q", plain.Output(), traced.Output())
	}
}

// TestEcacheFlushConserves: an Ecache flush (the write-back half of a
// flush-policy context switch) must land its stall cycles in the ledger's
// flush-refill row and keep every conservation equation closed once the
// flush time is charged to the run — exactly what the scenario scheduler
// does. Before the fix, Flush wrote the lines back without telling the
// ledger, so a conservation check across any flush point failed.
func TestEcacheFlushConserves(t *testing.T) {
	m, _ := tracedRun(t) // traceProgram stores to memory, so lines are dirty
	wbBefore := m.ECache.Stats.WriteBacks
	stall := m.ECache.Flush()
	if stall == 0 {
		t.Fatal("flushing a dirty Ecache cost no cycles")
	}
	if m.ECache.Stats.WriteBacks == wbBefore {
		t.Fatal("flush recorded no write-backs")
	}
	// The caller owns the flush time (the scheduler adds it to the run's
	// cycle total); mirror that so the ledger must balance across the flush.
	m.CPU.Stats.Cycles += uint64(stall)
	if err := m.VerifyAttribution(); err != nil {
		t.Fatalf("conservation broken across a flush: %v", err)
	}
	if got := m.Obs.Ledger.Count(obs.CauseFlushRefill); got != uint64(stall) {
		t.Fatalf("flush-refill row %d, want the flush's %d stall cycles", got, stall)
	}

	// Everything is clean now: a second flush is free and changes nothing.
	if s := m.ECache.Flush(); s != 0 {
		t.Fatalf("flushing a clean Ecache cost %d cycles", s)
	}
	if err := m.VerifyAttribution(); err != nil {
		t.Fatal(err)
	}
}

// TestObsReportCounters pins the per-unit counters an attribution report
// carries — names, order and values for one benchmark run — so memoized
// reports replay byte-identically.
func TestObsReportCounters(t *testing.T) {
	var src string
	for _, b := range tinyc.Benchmarks() {
		if b.Name == "fib" {
			src = b.Source
		}
	}
	im, err := tinyc.Build(src, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(), nil)
	m.Observe(obs.NewMachineSink())
	m.Load(im)
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	want := []obs.Counter{
		{Name: "pipeline.fetches", Value: 50331},
		{Name: "pipeline.retired", Value: 50327},
		{Name: "pipeline.squashed", Value: 0},
		{Name: "pipeline.branches", Value: 1973},
		{Name: "pipeline.exceptions", Value: 0},
		{Name: "icache.fetches", Value: 50331},
		{Name: "icache.misses", Value: 34},
		{Name: "icache.stall_cycles", Value: 221},
		{Name: "ecache.reads", Value: 6975},
		{Name: "ecache.writes", Value: 6908},
		{Name: "ecache.read_misses", Value: 17},
		{Name: "ecache.write_misses", Value: 13},
		{Name: "ecache.stall_cycles", Value: 270},
		{Name: "bus.words", Value: 120},
		{Name: "bus.transfers", Value: 30},
	}
	got := m.ObsReport().Counters
	if len(got) != len(want) {
		t.Fatalf("%d counters, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
