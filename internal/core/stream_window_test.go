package core

// Seam tests for the streaming observability pipeline: streamed traces must
// be byte-identical to buffered ones at machine level, observation must stay
// pure with streaming sinks and windowed ledgers attached, and windowed
// attribution must conserve per window across every boundary the machine can
// place one on — mid-squash included.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestStreamedTraceByteIdenticalMachine runs the golden trace workload twice
// — buffered then streamed — and requires the serialized bytes to match
// exactly. This is the machine-level form of the obs-package stream test:
// the event sequence here comes from a real pipeline run, not a synthetic
// recorder, so it covers spans, instants and pipe lanes in emission order.
func TestStreamedTraceByteIdenticalMachine(t *testing.T) {
	run := func(stream *bytes.Buffer) *Machine {
		m := New(DefaultConfig(), nil)
		s := obs.NewMachineSink()
		s.Tracer = &obs.Tracer{Instrs: true}
		if stream != nil {
			if err := s.Tracer.StartStream(stream, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Observe(s)
		if err := m.LoadSource(traceProgram); err != nil {
			t.Fatalf("load: %v", err)
		}
		if _, err := m.Run(100000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return m
	}

	var buffered bytes.Buffer
	if err := run(nil).Obs.Tracer.WriteJSON(&buffered); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	m := run(&streamed)
	if err := m.Obs.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Fatalf("streamed trace differs from buffered WriteJSON (%d vs %d bytes)",
			streamed.Len(), buffered.Len())
	}
	if d := m.Obs.Tracer.Dropped(); d != 0 {
		t.Fatalf("streaming tracer dropped %d events", d)
	}
}

// TestStreamNeverDropsOnMachineRun pins the unbounded-stream promise on a
// real run: a tracer whose buffer bound is far below the event count must
// still drop nothing once streaming.
func TestStreamNeverDropsOnMachineRun(t *testing.T) {
	m := New(DefaultConfig(), nil)
	s := obs.NewMachineSink()
	s.Tracer = &obs.Tracer{Instrs: true, MaxEvents: 4}
	var sink bytes.Buffer
	if err := s.Tracer.StartStream(&sink, 0); err != nil {
		t.Fatal(err)
	}
	m.Observe(s)
	if err := m.LoadSource(traceProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if d := s.Tracer.Dropped(); d != 0 {
		t.Fatalf("streaming tracer dropped %d events despite no buffer bound applying", d)
	}
	if s.Tracer.Len() <= 4 {
		t.Fatalf("only %d events recorded — stream never exceeded the buffer bound, test is vacuous", s.Tracer.Len())
	}
}

// TestObservationPurityStreamingAndWindows extends the observation-purity
// invariant (attaching a sink changes no cycle count) to the streaming
// configurations: a streaming tracer and a windowed ledger — separately and
// together — must leave every architectural outcome identical to the
// unobserved run.
func TestObservationPurityStreamingAndWindows(t *testing.T) {
	runIt := func(attach func(*obs.Sink)) *Machine {
		m := New(DefaultConfig(), nil)
		if attach != nil {
			s := obs.NewMachineSink()
			attach(s)
			m.Observe(s)
		}
		if err := m.LoadSource(traceProgram); err != nil {
			t.Fatalf("load: %v", err)
		}
		if _, err := m.Run(100000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return m
	}
	plain := runIt(nil)

	cases := []struct {
		name   string
		attach func(*obs.Sink)
	}{
		{"streaming-tracer", func(s *obs.Sink) {
			s.Tracer = &obs.Tracer{Instrs: true}
			if err := s.Tracer.StartStream(&bytes.Buffer{}, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"windowed-ledger", func(s *obs.Sink) {
			win := obs.NewWindowedLedger(obs.MachineCauseNames, 64)
			win.OnWindow(func(*obs.Window) error { return nil })
			s.Ledger.AttachWindows(win)
		}},
		{"streaming-tracer+windows", func(s *obs.Sink) {
			s.Tracer = &obs.Tracer{Instrs: true}
			if err := s.Tracer.StartStream(&bytes.Buffer{}, 0); err != nil {
				t.Fatal(err)
			}
			win := obs.NewWindowedLedger(obs.MachineCauseNames, 64)
			win.OnWindow(func(*obs.Window) error { return nil })
			s.Ledger.AttachWindows(win)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := runIt(tc.attach)
			if plain.CPU.Stats != m.CPU.Stats {
				t.Errorf("pipeline stats changed under %s:\nplain    %+v\nobserved %+v", tc.name, plain.CPU.Stats, m.CPU.Stats)
			}
			if plain.ICache.Stats != m.ICache.Stats {
				t.Errorf("icache stats changed under %s", tc.name)
			}
			if plain.ECache.Stats != m.ECache.Stats {
				t.Errorf("ecache stats changed under %s", tc.name)
			}
			if plain.Output() != m.Output() {
				t.Errorf("output changed under %s: %q vs %q", tc.name, plain.Output(), m.Output())
			}
			if err := m.VerifyAttribution(); err != nil {
				t.Errorf("attribution broken under %s: %v", tc.name, err)
			}
		})
	}
}

// windowedRun executes src with an attached windowed ledger of the given
// size and returns the machine; the window doc is retained on the ledger.
func windowedRun(t *testing.T, src string, size uint64) (*Machine, *obs.WindowedLedger) {
	t.Helper()
	m := New(DefaultConfig(), nil)
	s := obs.NewMachineSink()
	win := obs.NewWindowedLedger(obs.MachineCauseNames, size)
	s.Ledger.AttachWindows(win)
	m.Observe(s)
	if err := m.LoadSource(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	win.Flush()
	if err := win.Err(); err != nil {
		t.Fatalf("window self-check: %v", err)
	}
	if err := m.VerifyAttribution(); err != nil {
		t.Fatal(err)
	}
	return m, win
}

// checkWindowsAgainstLedger asserts the satellite invariant: every window
// conserves on its own, and the windowed series sums back to the unwindowed
// ledger cause-for-cause.
func checkWindowsAgainstLedger(t *testing.T, m *Machine, win *obs.WindowedLedger) *obs.WindowDoc {
	t.Helper()
	doc := win.Doc()
	if err := doc.Check(); err != nil {
		t.Fatalf("window doc: %v", err)
	}
	if got, want := doc.Total(), m.Obs.Ledger.Total(); got != want {
		t.Fatalf("windowed total %d, unwindowed ledger total %d", got, want)
	}
	totals, ledger := doc.CauseTotals(), m.Obs.Ledger.Map()
	if !reflect.DeepEqual(totals, ledger) {
		t.Fatalf("windowed cause totals diverge from ledger:\nwindows %v\nledger  %v", totals, ledger)
	}
	return doc
}

// squashProgram branches with the squashing scheme every few cycles, so the
// squash-annul charges are dense and — with a deliberately tiny window —
// some window boundary must split a squash's annulled slots.
const squashProgram = `
main:	addi r1, r0, 0
	addi r2, r0, 200
loop:	addi r1, r1, 1
	bne.sq r1, r2, loop
	nop
	nop
	putw r1
	halt
`

// TestWindowSeamMidSquash: a window boundary inside a squash window (the
// annulled delay slots of a taken .sq branch) must split the squash-annul
// charge across both windows without losing a cycle.
func TestWindowSeamMidSquash(t *testing.T) {
	m, win := windowedRun(t, squashProgram, 5)
	if m.Obs.Ledger.Count(obs.CauseSquashAnnul) == 0 {
		t.Fatal("no squash-annul cycles — seam test is vacuous")
	}
	doc := checkWindowsAgainstLedger(t, m, win)
	// With 5-cycle windows over a 6-cycle loop body the boundary phase
	// rotates through every alignment, so at least one squash straddles.
	var squashWindows int
	for _, w := range doc.Windows {
		for _, c := range w.Causes {
			if c.Cause == "squash-annul" && c.Cycles > 0 {
				squashWindows++
			}
		}
	}
	if squashWindows < 2 {
		t.Fatalf("squash cycles confined to %d window(s) — boundary never hit a squash", squashWindows)
	}
}
