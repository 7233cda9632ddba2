package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// collect attaches an emitter to w that keeps every window it closes.
func collect(w *WindowedLedger) *WindowDoc {
	doc := &WindowDoc{Schema: WindowSchema, Window: w.Size()}
	w.OnWindow(func(win *Window) error {
		doc.Windows = append(doc.Windows, *win)
		return nil
	})
	return doc
}

func TestWindowedLedgerSplitsAcrossBoundaries(t *testing.T) {
	l := NewMachineLedger()
	w := NewWindowedLedger(MachineCauseNames, 10)
	doc := collect(w)
	l.AttachWindows(w)

	// 7 + 6 straddles the first boundary: 3 of the ecache stall must land
	// in window 1. Then a 24-cycle bulk charge spans two more boundaries.
	l.Add(CauseExecute, 7)
	l.Stall(CauseEcacheRead, 6, 2) // 4 read + 2 bus-wait
	l.Add(CauseNop, 24)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

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
	doc := collect(w)
	l.AttachWindows(w)
	w.Register("progA")
	w.Register("progB")

	w.SetContext("progA")
	l.Add(CauseExecute, 5)
	w.SetContext("scheduler")
	l.Add(CauseContextSwitch, 4) // straddles the boundary: 3 in w0, 1 in w1
	w.SetContext("progB")
	l.Add(CauseExecute, 7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

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
	doc := collect(w)
	l := NewMachineLedger()
	l.AttachWindows(w)
	l.Add(CauseExecute, 9)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, win := range doc.Windows {
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
}

// TestWindowsMustAddBackToTheLedger: windows attached after the ledger was
// charged miss those cycles, so Flush reports that they no longer add back
// to the ledger, and Err keeps reporting it.
func TestWindowsMustAddBackToTheLedger(t *testing.T) {
	l := NewMachineLedger()
	l.Add(CauseExecute, 5)
	w := NewWindowedLedger(MachineCauseNames, 16)
	w.OnWindow(func(*Window) error { return nil })
	l.AttachWindows(w)
	l.Add(CauseExecute, 20)
	l.Add(CauseNop, 3)
	w.Flush()
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "add back") {
		t.Fatalf("late attach: Err = %v, want an add-back error", err)
	}

	// Detaching midway loses the later charges the same way.
	l = NewMachineLedger()
	w = NewWindowedLedger(MachineCauseNames, 16)
	l.AttachWindows(w)
	l.Add(CauseExecute, 20)
	l.AttachWindows(nil)
	l.Add(CauseNop, 1)
	w.Flush()
	if w.Err() == nil {
		t.Fatal("detached windows: no error")
	}
}

// TestWindowFlushIsIdempotent: a second Flush, as mipsx-run -scenario makes
// after scenario.Run has flushed, emits no window and returns what the
// first returned — nil on a clean run, the add-back error on a late attach.
func TestWindowFlushIsIdempotent(t *testing.T) {
	for _, late := range []bool{false, true} {
		l := NewMachineLedger()
		if late {
			l.Add(CauseExecute, 3)
		}
		w := NewWindowedLedger(MachineCauseNames, 16)
		doc := collect(w)
		l.AttachWindows(w)
		w.SetContext("prog")
		l.Add(CauseExecute, 20)
		l.Stall(CauseEcacheRead, 9, 4)
		first := w.Flush()
		if (first != nil) != late {
			t.Fatalf("late=%v: first Flush = %v", late, first)
		}
		n := len(doc.Windows)
		if n != 2 || doc.Windows[1].Cycles != 13 {
			t.Fatalf("late=%v: first Flush left windows %+v; want 2, the last 13 cycles", late, doc.Windows)
		}
		if second := w.Flush(); second != first || len(doc.Windows) != n {
			t.Fatalf("late=%v: second Flush = %v with %d windows; want %v with %d", late, second, len(doc.Windows), first, n)
		}
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
		"zero window":  `{"schema":"mipsx-obswin/v1","window":0}` + "\n",
		"repeated window": `{"schema":"mipsx-obswin/v1","window":16}` + "\n" +
			`{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}` + "\n" +
			`{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}` + "\n",
		"short non-final window": `{"schema":"mipsx-obswin/v1","window":16}` + "\n" +
			`{"index":0,"start":0,"cycles":10,"causes":[{"cause":"execute","cycles":10}]}` + "\n" +
			`{"index":1,"start":10,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}` + "\n",
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

// followLines feeds b's newline-terminated lines to one WindowDecoder, the
// way mipsx-trace -follow reads a live file, and collects the windows.
func followLines(b []byte) (size uint64, ws []Window, err error) {
	var d WindowDecoder
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return d.Size, ws, nil
		}
		w, err := d.Line(b[:i])
		if err != nil {
			return 0, nil, err
		}
		if w != nil {
			ws = append(ws, *w)
		}
		b = b[i+1:]
	}
}

// FuzzParseWindowStream fuzzes the window-stream boundary: no input panics;
// an accepted stream passes WindowDoc.Check; the same bytes fed line by line
// through the follow decoder get the same verdict and the same windows; and
// every prefix of an accepted stream, like a live file cut mid-line, parses
// to a prefix of its windows once its header line is complete.
func FuzzParseWindowStream(f *testing.F) {
	const head = `{"schema":"mipsx-obswin/v1","window":16}` + "\n"
	const w0 = `{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":14},{"cause":"icache-miss","cycles":2}]}` + "\n"
	const w1 = `{"index":1,"start":16,"cycles":10,"causes":[{"cause":"execute","cycles":10}],"contexts":[{"context":"prog","cycles":10,"causes":[{"cause":"execute","cycles":10}]}]}`
	f.Add([]byte(head + w0 + w1 + "\n"))
	f.Add([]byte(head + w0 + w1)) // the last line is still being written
	f.Add([]byte(head + w0 + w0))
	f.Add([]byte(head +
		`{"index":0,"start":0,"cycles":10,"causes":[{"cause":"execute","cycles":10}]}` + "\n" +
		`{"index":1,"start":10,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}` + "\n"))
	f.Add([]byte(`{"schema":"mipsx-obswin/v1","window":0}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		doc, err := ParseWindowStream(bytes.NewReader(b))
		size, ws, ferr := followLines(b)
		if ferr == nil && size == 0 {
			ferr = errors.New("no header")
		}
		if (err == nil) != (ferr == nil) {
			t.Fatalf("ParseWindowStream error %v, line-by-line error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if err := doc.Check(); err != nil {
			t.Fatalf("accepted stream fails Check: %v", err)
		}
		if doc.Window != size || !reflect.DeepEqual(doc.Windows, ws) {
			t.Fatalf("line-by-line decode differs:\n%+v\n%+v", doc.Windows, ws)
		}
		for cut := 0; cut <= len(b); cut += 1 + len(b)/512 {
			p, err := ParseWindowStream(bytes.NewReader(b[:cut]))
			if err != nil {
				if n, _, _ := followLines(b[:cut]); n != 0 {
					t.Fatalf("prefix of %d bytes with a complete header rejected: %v", cut, err)
				}
				continue
			}
			n := len(p.Windows)
			if p.Window != doc.Window || n > len(doc.Windows) ||
				n > 0 && !reflect.DeepEqual(p.Windows, doc.Windows[:n]) {
				t.Fatalf("prefix of %d bytes parses to %+v, not a prefix of %+v", cut, p.Windows, doc.Windows)
			}
		}
	})
}
