package core

// Seam tests for the streaming observability pipeline: streamed traces must
// equal the reference encoding at machine level, observation must stay pure
// with streaming sinks and windowed ledgers attached, and windowed
// attribution must conserve per window across every boundary the machine can
// place one on — mid-squash included.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// trapCoprocProgram overflows into a trap whose handler skips the faulting
// instruction, and runs FPU operations back to back, so its trace carries
// what the golden trace lacks: an exception instant with its cause, pipe
// spans annulled by the exception, and coprocessor busy-waits.
const trapCoprocProgram = `
handler:
	movs r20, pc0
	movs r21, pc1
	movs r22, pc2
	addi r23, r23, 1
	addi r20, r20, 1
	addi r21, r21, 1
	addi r22, r22, 1
	mots pc0, r20
	mots pc1, r21
	mots pc2, r22
	nop
	nop
	jpc
	jpc
	jpcrs
main:	li  r10, 517           ; system | ovf trap | PC-chain shift
	mots psw, r10
	nop
	nop
	ldf f2, scale(r0)
	addi r2, r0, 3
loop:	cpw c1, 514(r0)        ; fmul f0, f2
	cpw c1, 48(r0)         ; fadd f3, f0
	addi r2, r2, -1
	bne.sq r2, r0, loop
	nop
	nop
	li  r9, 0x7FFFFFFF
	add r11, r9, r9        ; overflow: trap, skipped by the handler
	st   r23, 4096(r0)     ; a store miss
	putw r23
	halt
scale:	.word 0x40200000
`

// refEvent is the json.Marshal reference the trace encoder must match (the
// obs package's reference-encoder tests hold the same struct).
type refEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// TestStreamedTraceByteIdenticalMachine streams a real pipeline run that
// traps and uses the coprocessor, and requires every event line to be
// byte-identical to its re-marshaling through the reference encoder.
func TestStreamedTraceByteIdenticalMachine(t *testing.T) {
	m := New(DefaultConfig(), nil)
	s := obs.NewMachineSink()
	s.Tracer = &obs.Tracer{Instrs: true}
	var trace bytes.Buffer
	if err := s.Tracer.StartStream(&trace, 0); err != nil {
		t.Fatal(err)
	}
	m.Observe(s)
	if err := m.LoadSource(trapCoprocProgram); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if m.Output() != "1\n" {
		t.Fatalf("program printed %q, want one trap taken", m.Output())
	}
	seen := map[string]int{}
	for _, line := range strings.Split(trace.String(), "\n") {
		line = strings.TrimSuffix(line, ",")
		if !strings.HasPrefix(line, `{"name"`) {
			continue // the frame
		}
		var ev refEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		if ev.Ph == "M" {
			continue // metadata: pinned by the obs reference tests
		}
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if line != string(want) {
			t.Fatalf("streamed line differs from the reference encoding:\n got %s\nwant %s", line, want)
		}
		seen[ev.Name]++
		if ev.Args["annulled"] != "" {
			seen["annulled:"+ev.Args["annulled"]]++
		}
		if ev.Args["cause"] != "" {
			seen["cause"]++
		}
	}
	for _, k := range []string{"exception", "cause", "annulled:exception", "annulled:squash", "branch-squash",
		"busy-wait", "imiss", "dmiss-read", "dmiss-write"} {
		if seen[k] == 0 {
			t.Errorf("trace has no %s event: %v", k, seen)
		}
	}
}

// TestStreamNeverDropsOnMachineRun: a real run streamed in small chunks
// drops nothing, and Len counts every event the stream holds.
func TestStreamNeverDropsOnMachineRun(t *testing.T) {
	m := New(DefaultConfig(), nil)
	s := obs.NewMachineSink()
	s.Tracer = &obs.Tracer{Instrs: true}
	var sink bytes.Buffer
	if err := s.Tracer.StartStream(&sink, 4); err != nil {
		t.Fatal(err)
	}
	m.Observe(s)
	if err := m.LoadSource(traceProgram(t)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if d := s.Tracer.Dropped(); d != 0 {
		t.Fatalf("streaming tracer dropped %d events", d)
	}
	// Lines: the header, the footer and 10 metadata events besides the
	// recorded events.
	if got, want := strings.Count(sink.String(), "\n")-12, s.Tracer.Len(); got != want || want <= 4 {
		t.Fatalf("stream holds %d events, Len %d (want equal, over several chunks)", got, want)
	}
}

// TestTraceSuiteDigest streams every benchmark, in suite order, into one
// writer and pins the bytes: the trace the encoder writes for the whole
// suite is the one the json.Marshal encoder it replaced wrote.
func TestTraceSuiteDigest(t *testing.T) {
	h := sha256.New()
	var size countWriter
	w := io.MultiWriter(h, &size)
	events := 0
	for _, b := range tinyc.Benchmarks() {
		im, err := tinyc.Build(b.Source, reorg.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := New(DefaultConfig(), nil)
		s := obs.NewMachineSink()
		s.Tracer = &obs.Tracer{Instrs: true}
		if err := s.Tracer.StartStream(w, 0); err != nil {
			t.Fatal(err)
		}
		m.Observe(s)
		m.Load(im)
		if _, err := m.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := s.Tracer.CloseStream(); err != nil {
			t.Fatal(err)
		}
		if d := s.Tracer.Dropped(); d != 0 {
			t.Fatalf("%s: %d events dropped", b.Name, d)
		}
		events += s.Tracer.Len()
	}
	const (
		wantBytes  = 160_543_561
		wantEvents = 1_516_447
		wantSHA    = "59e2710515dee7fdd70502603d1c15117a751b3969f39ee4f636f2a87ee5b1e4"
	)
	if got := hex.EncodeToString(h.Sum(nil)); size.n != wantBytes || events != wantEvents || got != wantSHA {
		t.Fatalf("suite trace: %d bytes, %d events, sha256 %s; want %d, %d, %s",
			size.n, events, got, wantBytes, wantEvents, wantSHA)
	}
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
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
		if err := m.LoadSource(traceProgram(t)); err != nil {
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
