package obs

// Windowed ledger aggregation: the attribution ledger folded into fixed-size
// cycle windows, producing the mipsx-obswin/v1 time-series the live renderer
// (mipsx-trace -follow) tails. Conservation holds per window by construction:
// the windowed ledger mirrors the exact (cause, n) charge stream the flat
// ledger receives, and cuts a window every `size` attributed cycles — since
// the flat ledger conserves (Σ causes == cycles), the attributed stream IS
// the cycle timeline, and each full window holds exactly `size` cycles split
// by cause. A charge straddling a boundary (a multi-cycle stall) is split
// across the windows it spans.
//
// Scenario runs additionally key charges per context (SetContext at quantum
// boundaries), so each window carries a per-context breakdown and Icache
// pollution/flush-refill cost is visible as it happens around each switch.
//
// Memory is O(window): with an OnWindow emitter attached, completed windows
// stream out and are not retained — a million-cycle run holds one in-flight
// window regardless of length. Without an emitter, windows accumulate into a
// WindowDoc (bounded uses only: per-cell documents).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	// Label tags the window with its producer (the experiment layer stamps
	// the cell id when streaming a sweep); empty in single-run streams.
	Label string `json:"label,omitempty"`
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
// tailed incrementally; see MarshalStream/ParseWindowStream.
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
	var pos uint64
	for i := range d.Windows {
		w := &d.Windows[i]
		if err := w.Check(); err != nil {
			return err
		}
		if w.Start != pos {
			return fmt.Errorf("obs: window %d starts at %d, want %d (gap or overlap)", w.Index, w.Start, pos)
		}
		if w.Cycles != d.Window && i != len(d.Windows)-1 {
			return fmt.Errorf("obs: non-final window %d holds %d cycles, want %d", w.Index, w.Cycles, d.Window)
		}
		pos += w.Cycles
	}
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

// MarshalStream writes the document in the line-framed stream format: the
// header line, then one compact JSON window per line.
func (d *WindowDoc) MarshalStream(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(windowHeader{Schema: d.Schema, Window: d.Window})
	if err != nil {
		return err
	}
	bw.Write(hb)
	bw.WriteByte('\n')
	for i := range d.Windows {
		b, err := json.Marshal(&d.Windows[i])
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ParseWindowStream reads a line-framed window stream. The stream may be a
// live snapshot truncated mid-run: only newline-terminated lines are
// consumed, so a trailing partial window line (a producer caught mid-write)
// is ignored rather than rejected.
func ParseWindowStream(r io.Reader) (*WindowDoc, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("obs: empty or headerless window stream")
		}
		return nil, err
	}
	var h windowHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, fmt.Errorf("obs: bad window-stream header: %w", err)
	}
	if h.Schema != WindowSchema {
		return nil, fmt.Errorf("obs: not a window stream (schema %q, want %q)", h.Schema, WindowSchema)
	}
	doc := &WindowDoc{Schema: h.Schema, Window: h.Window}
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				return doc, nil // drops any unterminated partial tail
			}
			return nil, err
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var w Window
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("obs: bad window at line %d: %w", len(doc.Windows)+2, err)
		}
		doc.Windows = append(doc.Windows, w)
	}
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

// WindowedLedger folds the charge stream of the Ledger it is attached to
// (Ledger.AttachWindows) into fixed-size cycle windows. It is not
// internally synchronized, exactly like the Ledger that feeds it.
type WindowedLedger struct {
	size  uint64
	names []string

	emit func(*Window) error // when set, completed windows stream out
	done []Window            // else they accumulate here

	idx    uint64 // next window's index
	filled uint64 // attributed cycles in the current window

	// Context keying. Slot 0 is the unkeyed context (""); SetContext
	// registers further contexts in first-use order. cur[slot][cause]
	// accumulates the current window.
	ctxNames []string
	ctxIdx   map[string]int
	curCtx   int
	cur      [][]uint64

	err error
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
		ctxNames: []string{""},
		ctxIdx:   map[string]int{"": 0},
		cur:      [][]uint64{make([]uint64, len(names))},
	}
}

// Size returns the window size in cycles.
func (w *WindowedLedger) Size() uint64 { return w.size }

// OnWindow attaches an emitter receiving each window as it closes; attached,
// the ledger retains nothing and memory stays O(window). The first emit
// error stops emission and is reported by Err.
func (w *WindowedLedger) OnWindow(emit func(*Window) error) { w.emit = emit }

// Err returns the first emission error.
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
// the unkeyed slot). The scenario scheduler calls this at quantum
// boundaries and around switch-time work.
func (w *WindowedLedger) SetContext(name string) {
	w.curCtx = w.Register(name)
}

// charge mirrors one ledger charge into the timeline, splitting across
// window boundaries. Called by Ledger.Add/Stall via the attachment seam.
func (w *WindowedLedger) charge(cause Cause, n uint64) {
	row := w.cur[w.curCtx]
	for n > 0 {
		room := w.size - w.filled
		take := n
		if take > room {
			take = room
		}
		row[cause] += take
		w.filled += take
		n -= take
		if w.filled == w.size {
			w.rollover()
			row = w.cur[w.curCtx]
		}
	}
}

// rollover closes the current window: builds its record, verifies its
// conservation (cheap — by construction it cannot fail unless this code is
// wrong), emits or retains it, and resets the accumulators.
func (w *WindowedLedger) rollover() {
	win := Window{Index: w.idx, Start: w.idx * w.size, Cycles: w.filled}
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
		}
	}
	w.idx++
	w.filled = 0
	if err := win.Check(); err != nil && w.err == nil {
		w.err = err
	}
	if w.emit != nil {
		if err := w.emit(&win); err != nil && w.err == nil {
			w.err = err
		}
		return
	}
	w.done = append(w.done, win)
}

// Flush closes the final partial window (no-op when empty). Call once at
// end of run, before Doc.
func (w *WindowedLedger) Flush() {
	if w.filled > 0 {
		w.rollover()
	}
}

// Windows returns the number of windows closed so far.
func (w *WindowedLedger) Windows() uint64 { return w.idx }

// Doc snapshots the retained windows as a mipsx-obswin/v1 document. With an
// OnWindow emitter attached the document is empty — the windows streamed out.
func (w *WindowedLedger) Doc() *WindowDoc {
	return &WindowDoc{Schema: WindowSchema, Window: w.size, Windows: w.done}
}
