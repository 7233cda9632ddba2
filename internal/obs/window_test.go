package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestWindowedLedgerSplitsAcrossBoundaries(t *testing.T) {
	l := NewMachineLedger()
	w := NewWindowedLedger(MachineCauseNames, 10)
	l.AttachWindows(w)

	// 7 + 6 straddles the first boundary: 3 of the ecache stall must land
	// in window 1. Then a 24-cycle bulk charge spans two more boundaries.
	l.Add(CauseExecute, 7)
	l.Stall(CauseEcacheRead, 6, 2) // 4 read + 2 bus-wait
	l.Add(CauseNop, 24)
	w.Flush()

	doc := w.Doc()
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	if len(doc.Windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(doc.Windows))
	}
	if doc.Total() != l.Total() {
		t.Fatalf("windows total %d != ledger total %d", doc.Total(), l.Total())
	}
	if !reflect.DeepEqual(doc.CauseTotals(), l.Map()) {
		t.Fatalf("windowed cause totals %v != ledger %v", doc.CauseTotals(), l.Map())
	}
	// Exact placement: window 0 = 7 exec + 2 bus-wait + 1 read; window 1 =
	// 3 read + 7 nop; window 2 = 10 nop; window 3 (partial) = 7 nop.
	w0 := doc.Windows[0].Causes
	want0 := []CauseCycles{{"execute", 7}, {"ecache-read", 1}, {"bus-wait", 2}}
	if !reflect.DeepEqual(w0, want0) {
		t.Fatalf("window 0 = %v, want %v", w0, want0)
	}
	if doc.Windows[3].Cycles != 7 {
		t.Fatalf("final partial window holds %d cycles, want 7", doc.Windows[3].Cycles)
	}
	if doc.Windows[2].Start != 20 {
		t.Fatalf("window 2 starts at %d, want 20", doc.Windows[2].Start)
	}
}

func TestWindowedLedgerContexts(t *testing.T) {
	l := NewMachineLedger()
	w := NewWindowedLedger(MachineCauseNames, 8)
	l.AttachWindows(w)
	w.Register("progA")
	w.Register("progB")

	w.SetContext("progA")
	l.Add(CauseExecute, 5)
	w.SetContext("scheduler")
	l.Add(CauseContextSwitch, 4) // straddles the boundary: 3 in w0, 1 in w1
	w.SetContext("progB")
	l.Add(CauseExecute, 7)
	w.Flush()

	doc := w.Doc()
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	if len(doc.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(doc.Windows))
	}
	w0 := doc.Windows[0]
	if len(w0.Contexts) != 2 || w0.Contexts[0].Context != "progA" || w0.Contexts[1].Context != "scheduler" {
		t.Fatalf("window 0 contexts wrong: %+v", w0.Contexts)
	}
	if w0.Contexts[0].Cycles != 5 || w0.Contexts[1].Cycles != 3 {
		t.Fatalf("window 0 context split wrong: %+v", w0.Contexts)
	}
	w1 := doc.Windows[1]
	// Registration order fixes row order: progB before scheduler even
	// though scheduler charged first in this window.
	if len(w1.Contexts) != 2 || w1.Contexts[0].Context != "progB" || w1.Contexts[1].Context != "scheduler" {
		t.Fatalf("window 1 contexts wrong: %+v", w1.Contexts)
	}
	if w1.Contexts[0].Cycles != 7 || w1.Contexts[1].Cycles != 1 {
		t.Fatalf("window 1 context split wrong: %+v", w1.Contexts)
	}
}

func TestWindowedLedgerUnkeyedElidesContexts(t *testing.T) {
	w := NewWindowedLedger(MachineCauseNames, 4)
	l := NewMachineLedger()
	l.AttachWindows(w)
	l.Add(CauseExecute, 9)
	w.Flush()
	for _, win := range w.Doc().Windows {
		if win.Contexts != nil {
			t.Fatalf("single-context run must omit Contexts: %+v", win)
		}
	}
}

func TestWindowedLedgerStreamsWithoutRetention(t *testing.T) {
	w := NewWindowedLedger(MachineCauseNames, 16)
	var emitted []Window
	w.OnWindow(func(win *Window) error {
		emitted = append(emitted, *win)
		return nil
	})
	l := NewMachineLedger()
	l.AttachWindows(w)
	for i := 0; i < 100; i++ {
		l.Add(CauseExecute, 10)
	}
	w.Flush()
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if len(w.Doc().Windows) != 0 {
		t.Fatalf("emitter attached but %d windows retained", len(w.Doc().Windows))
	}
	if len(emitted) != 63 { // 1000 cycles / 16 = 62 full + 1 partial
		t.Fatalf("emitted %d windows, want 63", len(emitted))
	}
	var total uint64
	for i := range emitted {
		if err := emitted[i].Check(); err != nil {
			t.Fatal(err)
		}
		total += emitted[i].Cycles
	}
	if total != 1000 {
		t.Fatalf("emitted windows total %d, want 1000", total)
	}
	if got := w.Windows(); got != 63 {
		t.Fatalf("Windows() = %d, want 63", got)
	}
}

func TestWindowStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWindowStreamWriter(&buf, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindowedLedger(MachineCauseNames, 32)
	w.OnWindow(sw.Write)
	l := NewMachineLedger()
	l.AttachWindows(w)
	w.SetContext("prog")
	l.Add(CauseExecute, 70)
	l.Add(CauseIcacheMiss, 14)
	w.Flush()
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if sw.Count() != 3 {
		t.Fatalf("stream wrote %d windows, want 3", sw.Count())
	}

	doc, err := ParseWindowStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != WindowSchema || doc.Window != 32 {
		t.Fatalf("header round-trip wrong: %+v", doc)
	}
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	if doc.Total() != 84 {
		t.Fatalf("round-tripped total %d, want 84", doc.Total())
	}
	if !reflect.DeepEqual(doc.CauseTotals(), l.Map()) {
		t.Fatalf("round-tripped causes %v != ledger %v", doc.CauseTotals(), l.Map())
	}
}

func TestParseWindowStreamRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong schema": `{"schema":"mipsx-obs/v1","window":16}` + "\n",
		"not json":     "windows go here\n",
		"bad window":   `{"schema":"mipsx-obswin/v1","window":16}` + "\n{nope\n",
	}
	for name, in := range cases {
		if _, err := ParseWindowStream(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: ParseWindowStream accepted %q", name, in)
		}
	}
	// A trailing partial line (live producer mid-window-write) is tolerated.
	ok := `{"schema":"mipsx-obswin/v1","window":16}` + "\n" +
		`{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}` + "\n" +
		`{"index":1,"start":16,"cy`
	doc, err := ParseWindowStream(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("partial trailing line must be tolerated: %v", err)
	}
	if len(doc.Windows) != 1 {
		t.Fatalf("partial tail mis-parsed: %+v", doc.Windows)
	}
}

func TestWindowDocCheckCatchesViolations(t *testing.T) {
	doc := &WindowDoc{Schema: WindowSchema, Window: 8, Windows: []Window{
		{Index: 0, Start: 0, Cycles: 8, Causes: []CauseCycles{{"execute", 7}}},
	}}
	if err := doc.Check(); err == nil {
		t.Fatal("Check must catch Σ causes != cycles")
	}
	doc.Windows[0].Causes[0].Cycles = 8
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	doc.Windows = append(doc.Windows, Window{Index: 1, Start: 9, Cycles: 1, Causes: []CauseCycles{{"nop", 1}}})
	if err := doc.Check(); err == nil {
		t.Fatal("Check must catch a gap in the timeline")
	}
}
