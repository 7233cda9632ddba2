package obs

// The event tracer: a streaming recorder of Chrome trace-event / Perfetto
// JSON. Call sites pass typed values (a track, cycle timestamps, a pc or an
// address as a number); one append encoder (encode.go) writes each event's
// bytes into a reused buffer, which is handed to an io.Writer in chunks, so
// a trace of an arbitrarily long run costs O(chunk) memory.
//
// On-disk format (DESIGN.md §15):
//
//	{"displayTimeUnit":"ns","traceEvents":[
//	<metadata event>,
//	<event>,
//	...
//	<event>
//	]}
//
// — one complete JSON event per line, comma-terminated except the last,
// closed by CloseStream. The line framing is the streaming contract: every
// line except the open/close braces is a self-contained JSON object, so a
// reader tailing a live (still-unclosed) stream parses it line by line,
// stripping the trailing comma. Which event is last is unknown until
// CloseStream, so the newest event is held back: recording an event
// completes the previous line with its comma, and only complete lines reach
// the writer.

import (
	"errors"
	"io"
)

// Trace track (thread) ids. Pipeline instruction occupancy spans rotate over
// PipeLanes tracks so overlapping in-flight instructions (at most one per
// stage) render side by side in Perfetto; the cache, coprocessor and marker
// tracks carry miss-service spans and squash/exception instants.
const (
	TrackPipeBase = 1 // lanes TrackPipeBase .. TrackPipeBase+PipeLanes-1
	PipeLanes     = 5 // one per pipeline stage's worth of in-flight overlap
	TrackIcache   = TrackPipeBase + PipeLanes
	TrackEcache   = TrackIcache + 1
	TrackCoproc   = TrackEcache + 1
	TrackMarks    = TrackCoproc + 1
)

// DefaultStreamChunk is the flush interval in events for a stream whose
// chunk size is unset: complete lines are written every chunk so a live
// reader (mipsx-trace -follow, a pipe) sees progress while the simulation
// runs, without paying a write per event.
const DefaultStreamChunk = 512

// eventBytes is the size StartStream budgets for each event in a chunk. A
// pipe span, the bulk of an instruction-level trace, averages about 106
// bytes.
const eventBytes = 128

// Arg is an event's optional argument: a number written as a hex string
// under a fixed key, as in {"addr":"0x1f"}. The zero Arg writes no args
// object.
type Arg struct {
	key string
	val uint32
}

// AddrArg is the word address a cache miss serviced.
func AddrArg(a uint32) Arg { return Arg{"addr", a} }

// CauseArg is the PSW cause bits an exception was taken with.
func CauseArg(c uint32) Arg { return Arg{"cause", c} }

// Tracer streams structured events for one run as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), loadable by
// chrome://tracing and ui.perfetto.dev. Events are recorded only between
// StartStream and CloseStream; events recorded with no stream open, or
// after the writer failed, are counted by Dropped. Methods are nil-safe; a
// nil *Tracer records nothing.
type Tracer struct {
	// Instrs enables per-instruction pipeline occupancy spans (one span per
	// fetched instruction from IF to WB). Off by default: it is the one
	// event class whose volume scales with instructions rather than misses.
	Instrs bool

	lane  int    // the next pipe span's lane, 0 .. PipeLanes-1
	start tsMemo // the last pipe span's start and its text

	w     io.Writer // the open stream; nil before StartStream and after CloseStream
	err   error     // the first write error; recording stops after it
	chunk int
	buf   []byte // complete lines, then the held-back newest event at buf[held:]
	held  int

	// pending counts events in buf (the held one included); written those
	// that reached w, dropped those that never will.
	pending, written, dropped uint64
}

// StartStream opens the trace on w: every subsequent event is encoded as it
// is recorded, and complete lines are written every chunkEvents events (0
// means DefaultStreamChunk). It must be called before any event is
// recorded. The caller must call CloseStream when the run ends to write the
// held-back final event and the closing frame.
func (t *Tracer) StartStream(w io.Writer, chunkEvents int) error {
	if t.w != nil {
		return errors.New("obs: tracer is already streaming")
	}
	if t.written+t.dropped > 0 {
		return errors.New("obs: StartStream after events were recorded; start the stream before the run")
	}
	if chunkEvents <= 0 {
		chunkEvents = DefaultStreamChunk
	}
	t.w, t.err, t.chunk = w, nil, chunkEvents
	// A chunk of complete lines plus the held event, at a typical event's
	// size; a larger chunk, or longer events, grow it.
	n := len(preamble) + (min(chunkEvents, DefaultStreamChunk)+1)*eventBytes
	t.buf = append(make([]byte, 0, n), preamble...)
	return nil
}

// Streaming reports whether a stream is open.
func (t *Tracer) Streaming() bool { return t != nil && t.w != nil }

// CloseStream writes the held-back final event without a trailing comma,
// closes the JSON frame and returns the first error the stream hit (a
// partial file is detectable: it lacks the closing frame). Events recorded
// afterwards are dropped.
func (t *Tracer) CloseStream() error {
	w := t.w
	if w == nil {
		return errors.New("obs: tracer is not streaming")
	}
	t.w = nil
	if t.err == nil {
		t.write(w, append(t.buf, "\n"+traceFooter...), t.pending)
	}
	t.buf = nil
	return t.err
}

// Len reports the number of events written to the stream (the count
// survives CloseStream). Until CloseStream it lags the recorded events by
// at most one chunk.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.written)
}

// Dropped reports the events recorded with no stream open or lost to a
// write error.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Span records a complete event (ph "X") of dur cycles starting at ts.
func (t *Tracer) Span(tid int, cat, name string, ts, dur uint64, arg Arg) {
	if t == nil {
		return
	}
	if b, ok := t.begin(); ok {
		t.end(appendArg(appendHead(b, name, cat, "X", ts, dur, tid), arg))
	}
}

// Instant records a thread-scoped instant event (ph "i") at ts.
func (t *Tracer) Instant(tid int, cat, name string, ts uint64, arg Arg) {
	if t == nil {
		return
	}
	if b, ok := t.begin(); ok {
		b = append(appendHead(b, name, cat, "i", ts, 0, tid), `,"s":"t"`...)
		t.end(appendArg(b, arg))
	}
}

// PipeSpan records one instruction's pipeline occupancy from fetch (start)
// to retirement (end), rotating across PipeLanes tracks so overlapping
// in-flight instructions do not nest. label, whose head is its first head
// bytes, is the instruction's label from AppendPipeLabel: it carries the
// name and the pc. annulled is the reason a squash or exception cancelled
// the instruction, or empty. Only the start, the duration and the annulled
// reason are encoded per span: the start from the previous span's text
// (tsMemo), the lane's fields from a constant.
func (t *Tracer) PipeSpan(label []byte, head int, start, end uint64, annulled string) {
	if t == nil {
		return
	}
	lane := t.lane
	if t.lane++; t.lane == PipeLanes {
		t.lane = 0
	}
	b, ok := t.begin()
	if !ok {
		return
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	b = append(append(b, label[:head]...), t.start.at(start)...)
	b = append(appendDur(b, dur), pipeTails[lane]...)
	if annulled != "" {
		b = append(b, `"annulled":`...)
		b = appendString(b, annulled)
		b = append(b, ',')
	}
	t.end(append(b, label[head:]...))
}

// begin returns the buffer with the held line completed by its comma, for
// the next event to be appended to, and marks where that event starts. It
// reports false, counting the event dropped, when no stream is open or the
// writer has failed.
func (t *Tracer) begin() ([]byte, bool) {
	if t.w == nil || t.err != nil {
		t.dropped++
		return nil, false
	}
	b := append(t.buf, ",\n"...)
	t.held = len(b)
	return b, true
}

// end makes b, the buffer begin returned with one event appended, the
// buffer and accounts the event; once a chunk of complete lines has
// accumulated, it writes them and moves the held event to the front. While
// b shares the buffer's array only the length is stored: storing the
// pointer too costs a GC write barrier per event whenever the collector is
// marking (the reason the pipeline indexes its latches, DESIGN §9).
func (t *Tracer) end(b []byte) {
	if cap(b) == cap(t.buf) {
		t.buf = t.buf[:len(b)]
	} else {
		t.buf = b
	}
	if t.pending++; t.pending <= uint64(t.chunk) {
		return
	}
	if t.write(t.w, t.buf[:t.held], t.pending-1) {
		t.buf = t.buf[:copy(t.buf, t.buf[t.held:])]
	}
}

// write hands b, holding n events' complete lines, to w. On failure the
// stream stops: every buffered event counts as dropped.
func (t *Tracer) write(w io.Writer, b []byte, n uint64) bool {
	if _, err := w.Write(b); err != nil {
		t.err = err
		t.dropped += t.pending
		t.pending, t.buf = 0, t.buf[:0]
		return false
	}
	t.written += n
	t.pending -= n
	return true
}
