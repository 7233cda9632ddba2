package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Add(CauseExecute, 5)
	l.Stall(CauseEcacheRead, 3, 1)
	l.BeginIFetch()
	l.EndIFetch()
	if l.Total() != 0 || l.Count(CauseExecute) != 0 || l.Map() != nil || l.Causes() != nil {
		t.Fatal("nil ledger must observe nothing")
	}
}

func TestLedgerConservesAndSplitsBusWait(t *testing.T) {
	l := NewMachineLedger()
	l.Add(CauseExecute, 10)
	l.Stall(CauseEcacheRead, 7, 2) // 5 ecache-read + 2 bus-wait
	l.Stall(CauseEcacheWrite, 3, 0)
	if got := l.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if l.Count(CauseEcacheRead) != 5 || l.Count(CauseBusWait) != 2 || l.Count(CauseEcacheWrite) != 3 {
		t.Fatalf("bus-wait split wrong: read=%d wait=%d write=%d",
			l.Count(CauseEcacheRead), l.Count(CauseBusWait), l.Count(CauseEcacheWrite))
	}
	// wait is clamped to the stall it is carved from.
	l.Stall(CauseEcacheRead, 2, 9)
	if l.Count(CauseBusWait) != 4 {
		t.Fatalf("clamped wait: bus-wait = %d, want 4", l.Count(CauseBusWait))
	}
}

func TestLedgerIFetchBracketReattributes(t *testing.T) {
	l := NewMachineLedger()
	l.BeginIFetch()
	l.Stall(CauseEcacheRead, 6, 1) // inside bracket: goes to ecache-ifetch (+bus-wait)
	l.EndIFetch()
	l.Stall(CauseEcacheRead, 4, 0) // outside: stays on the data port
	if l.Count(CauseEcacheIFetch) != 5 || l.Count(CauseEcacheRead) != 4 || l.Count(CauseBusWait) != 1 {
		t.Fatalf("ifetch reattribution wrong: ifetch=%d read=%d wait=%d",
			l.Count(CauseEcacheIFetch), l.Count(CauseEcacheRead), l.Count(CauseBusWait))
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
}

func TestReportCheckConservation(t *testing.T) {
	l := NewMachineLedger()
	l.Add(CauseExecute, 8)
	l.Add(CauseIcacheMiss, 2)
	s := &Sink{Ledger: l}
	r := s.Report(10, 8)
	if err := r.Check(); err != nil {
		t.Fatalf("conserved report failed Check: %v", err)
	}
	r.Cycles = 11
	if err := r.Check(); err == nil {
		t.Fatal("Check must fail when attributed != cycles")
	}
	if r.Attributed() != 10 {
		t.Fatalf("Attributed = %d, want 10", r.Attributed())
	}
}

func TestDecompositionTable(t *testing.T) {
	l := NewMachineLedger()
	l.Add(CauseExecute, 90)
	l.Add(CauseEcacheRead, 10)
	s := &Sink{Ledger: l}
	out := s.Report(100, 90).DecompositionTable()
	for _, want := range []string{"execute", "ecache-read", "conservation: sum(causes) == 100 cycles ok", "CPI"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "squash-annul") {
		t.Fatalf("zero causes must be elided:\n%s", out)
	}
}

// TestTracerBoundsAndJSON: events count as written only between
// StartStream and CloseStream (those recorded after the close are dropped),
// and the stream is a valid Chrome trace-event document.
func TestTracerBoundsAndJSON(t *testing.T) {
	tr := &Tracer{}
	var buf bytes.Buffer
	if err := tr.StartStream(&buf, 0); err != nil {
		t.Fatal(err)
	}
	tr.Span(TrackIcache, "cache", "imiss", 5, 3, AddrArg(0x40))
	tr.Instant(TrackMarks, "ctl", "branch-squash", 9, Arg{})
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	tr.Span(TrackEcache, "cache", "dropped", 10, 1, Arg{})
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tr.Len(), tr.Dropped())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	// Schema validity: every event carries the required Chrome trace-event
	// keys, and complete events carry a duration.
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		if ev["ph"] == "X" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event missing ts: %v", ev)
			}
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(1, "c", "n", 0, 1, Arg{})
	tr.Instant(1, "c", "n", 0, Arg{})
	label, head := AppendPipeLabel(nil, []byte("n"), 0)
	tr.PipeSpan(label, head, 0, 1, "")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Streaming() {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestPipeSpanLaneRotation(t *testing.T) {
	tr := &Tracer{}
	var buf bytes.Buffer
	if err := tr.StartStream(&buf, 0); err != nil {
		t.Fatal(err)
	}
	label, head := AppendPipeLabel(nil, []byte("in"), 0)
	for i := 0; i < PipeLanes+1; i++ {
		tr.PipeSpan(label, head, uint64(i), uint64(i+5), "")
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"ts":0,"dur":5,"pid":1,"tid":1`) || !strings.Contains(s, `"ts":4,"dur":5,"pid":1,"tid":5`) ||
		!strings.Contains(s, `"ts":5,"dur":5,"pid":1,"tid":1`) {
		t.Fatalf("lanes not rotated:\n%s", s)
	}
}
