package obs

// Windowed ledger aggregation: the attribution ledger cut into fixed-size
// cycle windows, producing the mipsx-obswin/v1 time-series the live renderer
// (mipsx-trace -follow) tails. Conservation holds per window by construction:
// the flat ledger conserves (Σ causes == cycles), so its attributed total IS
// the cycle timeline, and a window closes each time that total crosses a
// multiple of `size`. The window's row is the difference of two snapshots
// of the ledger's counts, so each full window holds exactly `size` cycles
// split by cause. A charge straddling a boundary (a multi-cycle stall) is
// split across the windows it spans: the part past the boundary is held
// back from the closing window's snapshot.
//
// Scenario runs additionally key charges per context (SetContext at quantum
// boundaries, which folds the charges since the last snapshot into the
// outgoing context's row), so each window carries a per-context breakdown
// and Icache pollution/flush-refill cost is visible as it happens around
// each switch.
//
// Windows only stream: each closed window goes to the OnWindow emitter and
// nothing is retained, so a million-cycle run holds one in-flight window
// regardless of length. Flush closes the last window and checks that the
// windows add back to the flat ledger they mirror, cause for cause.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/jsondoc"
)

// WindowSchema identifies the windowed-ledger time-series format.
const WindowSchema = "mipsx-obswin/v1"

// ContextSlice is one context's share of a window's cycles, present in
// scenario runs where charges are keyed per context.
type ContextSlice struct {
	Context string        `json:"context"`
	Cycles  uint64        `json:"cycles"`
	Causes  []CauseCycles `json:"causes"` // zero causes elided
}

// Window is one fixed-size slice of the attributed-cycle timeline.
type Window struct {
	// Index is the window's ordinal; Start its first attributed cycle
	// (Index × size). Cycles is the attributed total — exactly the window
	// size except for the final partial window.
	Index  uint64 `json:"index"`
	Start  uint64 `json:"start"`
	Cycles uint64 `json:"cycles"`
	// Causes is the per-cause decomposition, schema order, zero rows elided.
	Causes []CauseCycles `json:"causes"`
	// Contexts splits Causes by execution context (scenario runs only),
	// registration order. Per cause, the context rows sum to the Causes row.
	Contexts []ContextSlice `json:"contexts,omitempty"`
}

// Check verifies the window's conservation: Σ causes == Cycles, and — when
// context-keyed — the context slices partition every cause exactly.
func (w *Window) Check() error {
	var sum uint64
	byCause := map[string]uint64{}
	for _, c := range w.Causes {
		sum += c.Cycles
		byCause[c.Cause] += c.Cycles
	}
	if sum != w.Cycles {
		return fmt.Errorf("obs: window %d conservation violated: Σ causes %d != %d cycles", w.Index, sum, w.Cycles)
	}
	if len(w.Contexts) > 0 {
		ctxCause := map[string]uint64{}
		var ctxSum uint64
		for _, cs := range w.Contexts {
			var csum uint64
			for _, c := range cs.Causes {
				ctxCause[c.Cause] += c.Cycles
				csum += c.Cycles
			}
			if csum != cs.Cycles {
				return fmt.Errorf("obs: window %d context %q: Σ causes %d != %d cycles", w.Index, cs.Context, csum, cs.Cycles)
			}
			ctxSum += cs.Cycles
		}
		if ctxSum != w.Cycles {
			return fmt.Errorf("obs: window %d: context cycles %d != window cycles %d", w.Index, ctxSum, w.Cycles)
		}
		for cause, n := range ctxCause {
			if byCause[cause] != n {
				return fmt.Errorf("obs: window %d: cause %q split %d across contexts, window row %d", w.Index, cause, n, byCause[cause])
			}
		}
	}
	return nil
}

// WindowDoc is the serializable mipsx-obswin/v1 time-series: the window size
// and the windows in timeline order. On disk it is line-framed JSON (one
// header object, then one window object per line) so it can be produced and
// tailed incrementally; see WindowStreamWriter and WindowDecoder.
type WindowDoc struct {
	Schema string `json:"schema"`
	// Window is the window size in attributed cycles.
	Window  uint64   `json:"window"`
	Windows []Window `json:"windows"`
}

// Check verifies every window and that cumulative totals are consistent:
// windows tile the timeline with no gaps.
func (d *WindowDoc) Check() error {
	if d == nil {
		return nil
	}
	var t tiling
	for i := range d.Windows {
		if err := t.next(&d.Windows[i], d.Window); err != nil {
			return err
		}
	}
	return nil
}

// tiling checks windows one at a time, in timeline order, against a window
// size: each conserves and starts at the cycles seen so far, and a window
// may follow another only if that one was full. Fed a whole document it
// reports the first violation WindowDoc.Check reports; fed a live stream it
// rejects each bad window as it arrives.
type tiling struct {
	pos  uint64  // cycles in the windows seen so far
	prev *Window // the latest window, nil before the first
}

func (t *tiling) next(w *Window, size uint64) error {
	if p := t.prev; p != nil && p.Cycles != size {
		return fmt.Errorf("obs: non-final window %d holds %d cycles, want %d", p.Index, p.Cycles, size)
	}
	if err := w.Check(); err != nil {
		return err
	}
	if w.Start != t.pos {
		return fmt.Errorf("obs: window %d starts at %d, want %d (gap or overlap)", w.Index, w.Start, t.pos)
	}
	t.pos += w.Cycles
	t.prev = w
	return nil
}

// Total sums attributed cycles across all windows.
func (d *WindowDoc) Total() uint64 {
	var t uint64
	for i := range d.Windows {
		t += d.Windows[i].Cycles
	}
	return t
}

// CauseTotals folds the time-series back into cause → cycles; by the
// per-window conservation invariant this equals the flat ledger's map.
func (d *WindowDoc) CauseTotals() map[string]uint64 {
	m := map[string]uint64{}
	for i := range d.Windows {
		for _, c := range d.Windows[i].Causes {
			m[c.Cause] += c.Cycles
		}
	}
	return m
}

// windowHeader is the stream's first line.
type windowHeader struct {
	Schema string `json:"schema"`
	Window uint64 `json:"window"`
}

// WindowDecoder reads a mipsx-obswin/v1 stream one complete line at a
// time; it is the format's one reader. ParseWindowStream feeds it a whole
// stream, and mipsx-trace -follow feeds it each line as a live producer
// finishes writing it. The first non-blank line must be a header naming the
// schema and a window size above 0; every later non-blank line is a window,
// checked as it arrives (see tiling). The zero decoder awaits the header.
type WindowDecoder struct {
	// Size is the header's window size, 0 until the header is read.
	Size uint64
	t    tiling
	line int
}

// Line decodes one complete line (with or without its newline). It returns
// the window the line holds, or nil for the header and blank lines.
func (d *WindowDecoder) Line(line []byte) (*Window, error) {
	d.line++
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, nil
	}
	if d.Size == 0 {
		var h windowHeader
		if err := jsondoc.Decode(line, &h); err != nil {
			return nil, fmt.Errorf("obs: bad window-stream header: %w", err)
		}
		if h.Schema != WindowSchema {
			return nil, fmt.Errorf("obs: not a window stream (schema %q, want %q)", h.Schema, WindowSchema)
		}
		if h.Window == 0 {
			return nil, fmt.Errorf("obs: window-stream header has window size 0")
		}
		d.Size = h.Window
		return nil, nil
	}
	w := new(Window)
	if err := jsondoc.Decode(line, w); err != nil {
		return nil, fmt.Errorf("obs: bad window at line %d: %w", d.line, err)
	}
	if err := d.t.next(w, d.Size); err != nil {
		return nil, err
	}
	return w, nil
}

// ParseWindowStream reads a line-framed window stream through a
// WindowDecoder. The stream may be a live snapshot truncated mid-run: only
// newline-terminated lines are consumed, so a trailing partial line (a
// producer caught mid-write) is ignored rather than rejected.
func ParseWindowStream(r io.Reader) (*WindowDoc, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var d WindowDecoder
	doc := &WindowDoc{Schema: WindowSchema}
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // drops any unterminated partial tail
		}
		if err != nil {
			return nil, err
		}
		w, err := d.Line(line)
		if err != nil {
			return nil, err
		}
		if w != nil {
			doc.Windows = append(doc.Windows, *w)
		}
	}
	if d.Size == 0 {
		return nil, fmt.Errorf("obs: empty or headerless window stream")
	}
	doc.Window = d.Size
	return doc, nil
}

// WindowStreamWriter streams windows in the line-framed format as they
// close, flushing after every window (windows are rare — one per `size`
// cycles — so a live reader sees each promptly).
type WindowStreamWriter struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWindowStreamWriter writes the stream header and returns a writer whose
// Write method plugs into WindowedLedger.OnWindow.
func NewWindowStreamWriter(w io.Writer, size uint64) (*WindowStreamWriter, error) {
	sw := &WindowStreamWriter{w: bufio.NewWriter(w)}
	hb, err := json.Marshal(windowHeader{Schema: WindowSchema, Window: size})
	if err != nil {
		return nil, err
	}
	sw.w.Write(hb)
	sw.w.WriteByte('\n')
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	return sw, nil
}

// Write appends one window line and flushes.
func (sw *WindowStreamWriter) Write(win *Window) error {
	if sw.err != nil {
		return sw.err
	}
	b, err := json.Marshal(win)
	if err != nil {
		sw.err = err
		return err
	}
	sw.w.Write(b)
	sw.w.WriteByte('\n')
	if err := sw.w.Flush(); err != nil {
		sw.err = err
		return err
	}
	sw.n++
	return nil
}

// Count reports the windows written.
func (sw *WindowStreamWriter) Count() uint64 { return sw.n }

// WindowedLedger cuts the charges of the Ledger it is attached to
// (Ledger.AttachWindows) into fixed-size cycle windows. It copies no
// charge: while it is attached the ledger keeps a running total and the
// boundary where the current window ends, and a window's row is the
// ledger's counts minus a snapshot taken where the window began. It is not
// internally synchronized, exactly like the Ledger that feeds it.
type WindowedLedger struct {
	size  uint64
	names []string

	emit func(*Window) error // receives each window as it closes
	sums []uint64            // per-cause cycles of the closed windows

	idx uint64 // next window's index

	// snap is the attached ledger's counts as of the latest fold: the
	// charges since then are the current context's, not yet in cur.
	snap []uint64

	// Context keying. Slot 0 is the unkeyed context (""); SetContext
	// registers further contexts in first-use order. cur[slot][cause]
	// holds the current window's folded cycles.
	ctxNames []string
	ctxIdx   map[string]int
	curCtx   int
	cur      [][]uint64

	err error
	led *Ledger // the ledger it is attached to
}

// NewWindowedLedger builds a windowed ledger over a cause-name schema with
// the given window size in cycles (16384 is the conventional default).
func NewWindowedLedger(names []string, size uint64) *WindowedLedger {
	if size == 0 {
		panic("obs: windowed ledger needs a nonzero window size")
	}
	return &WindowedLedger{
		size:     size,
		names:    names,
		sums:     make([]uint64, len(names)),
		snap:     make([]uint64, len(names)),
		ctxNames: []string{""},
		ctxIdx:   map[string]int{"": 0},
		cur:      [][]uint64{make([]uint64, len(names))},
	}
}

// Size returns the window size in cycles.
func (w *WindowedLedger) Size() uint64 { return w.size }

// OnWindow attaches an emitter receiving each window as it closes. The
// first emit error stops emission and is reported by Err.
func (w *WindowedLedger) OnWindow(emit func(*Window) error) { w.emit = emit }

// Err returns the first emission or conservation error.
func (w *WindowedLedger) Err() error { return w.err }

// Register adds a context key (idempotent), fixing its order in the
// per-window breakdown; SetContext registers implicitly, but explicit
// registration up front keeps row order independent of scheduling.
func (w *WindowedLedger) Register(name string) int {
	if i, ok := w.ctxIdx[name]; ok {
		return i
	}
	i := len(w.ctxNames)
	w.ctxIdx[name] = i
	w.ctxNames = append(w.ctxNames, name)
	w.cur = append(w.cur, make([]uint64, len(w.names)))
	return i
}

// SetContext keys subsequent charges to the named context ("" reverts to
// the unkeyed slot), folding the charges made since the last fold into the
// outgoing context's row. The scenario scheduler calls this at quantum
// boundaries and around switch-time work.
func (w *WindowedLedger) SetContext(name string) {
	w.fold(0, 0)
	w.curCtx = w.Register(name)
}

// attach starts cutting l's charges: what l holds already stays out of the
// windows, and the current window ends after the cycles it still has room
// for.
func (w *WindowedLedger) attach(l *Ledger) {
	w.led = l
	copy(w.snap, l.counts)
	l.next = l.total + w.size - w.inWindow()
}

// fold moves the attached ledger's charges since the last fold into the
// current context's row, holding back the last over cycles charged to
// cause: the part of a crossing charge that belongs to the next window.
// Charges made while w is detached are not w's.
func (w *WindowedLedger) fold(cause Cause, over uint64) {
	l := w.led
	if l == nil || l.win != w {
		return
	}
	row := w.cur[w.curCtx]
	for c, n := range l.counts {
		d := n - w.snap[c]
		if Cause(c) == cause {
			d -= over
		}
		row[c] += d
		w.snap[c] += d
	}
}

// cut closes every window whose end the ledger's total has reached. The
// latest charge, to cause, reached it; the part of that charge past an end
// belongs to the windows after it. Called by Ledger.Add.
func (w *WindowedLedger) cut(cause Cause) {
	l := w.led
	for l.total >= l.next {
		w.fold(cause, l.total-l.next)
		w.rollover(w.size)
		l.next += w.size
	}
}

// inWindow returns the cycles folded into the current window.
func (w *WindowedLedger) inWindow() uint64 {
	var n uint64
	for _, row := range w.cur {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// rollover closes the current window, which holds cycles cycles: builds its
// record, verifies its conservation (cheap — by construction it cannot fail
// unless this code is wrong), emits it, and resets the rows.
func (w *WindowedLedger) rollover(cycles uint64) {
	win := Window{Index: w.idx, Start: w.idx * w.size, Cycles: cycles}
	keyed := len(w.ctxNames) > 1
	totals := make([]uint64, len(w.names))
	for slot, row := range w.cur {
		var slotCycles uint64
		var causes []CauseCycles
		for c, v := range row {
			if v == 0 {
				continue
			}
			totals[c] += v
			slotCycles += v
			if keyed {
				causes = append(causes, CauseCycles{Cause: w.names[c], Cycles: v})
			}
			row[c] = 0
		}
		if keyed && slotCycles > 0 {
			win.Contexts = append(win.Contexts, ContextSlice{Context: w.ctxNames[slot], Cycles: slotCycles, Causes: causes})
		}
	}
	for c, v := range totals {
		if v != 0 {
			win.Causes = append(win.Causes, CauseCycles{Cause: w.names[c], Cycles: v})
			w.sums[c] += v
		}
	}
	w.idx++
	if err := win.Check(); err != nil && w.err == nil {
		w.err = err
	}
	if w.emit != nil {
		if err := w.emit(&win); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// Flush closes the final partial window (no-op when empty) and checks that
// the windows add back to the attached ledger cause for cause, which fails
// when the ledger was charged before the windows were attached or after
// they were detached. It returns Err. Call it at the end of the run; a
// second call emits nothing and returns the same result.
func (w *WindowedLedger) Flush() error {
	w.fold(0, 0)
	if n := w.inWindow(); n > 0 {
		w.rollover(n)
	}
	if w.led != nil && w.err == nil {
		for c, n := range w.sums {
			if got := w.led.counts[c]; got != n {
				w.err = fmt.Errorf("obs: windows add back to %d %s cycles, the ledger holds %d", n, w.names[c], got)
				break
			}
		}
	}
	return w.err
}
