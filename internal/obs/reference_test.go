package obs

// The reference encoder: the json.Marshal-based event struct the tracer
// buffered before the append encoder replaced it. Every streamed line must
// equal what this produces for the same event.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// refEvent is one Chrome trace-event / Perfetto JSON entry. Field order is
// the marshal order; ts/dur are simulated cycles.
type refEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`    // instant scope ("t" = thread)
	Args map[string]string `json:"args,omitempty"` // json sorts keys
}

// refMeta is a metadata event naming the process or a track.
type refMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// refMetas is the metadata preamble every trace starts with.
func refMetas() []refMeta {
	metas := []refMeta{{Name: "process_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]string{"name": "mipsx-sim"}}}
	for lane := 0; lane < PipeLanes; lane++ {
		metas = append(metas, refMeta{Name: "thread_name", Ph: "M", Pid: 1, Tid: TrackPipeBase + lane,
			Args: map[string]string{"name": fmt.Sprintf("pipe-%d", lane)}})
	}
	names := map[int]string{TrackIcache: "icache", TrackEcache: "ecache", TrackCoproc: "coproc", TrackMarks: "marks"}
	for _, tid := range []int{TrackIcache, TrackEcache, TrackCoproc, TrackMarks} {
		metas = append(metas, refMeta{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]string{"name": names[tid]}})
	}
	return metas
}

// refDocument serializes a whole trace the way the buffered WriteJSON did.
func refDocument(t *testing.T, events []refEvent) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(traceHeader)
	var items []any
	for _, m := range refMetas() {
		items = append(items, m)
	}
	for i := range events {
		items = append(items, &events[i])
	}
	for i, it := range items {
		line, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(items)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString(traceFooter)
	return b.Bytes()
}

// refArgs is the reference map for a typed Arg.
func refArgs(a Arg) map[string]string {
	if a.key == "" {
		return nil
	}
	return map[string]string{a.key: fmt.Sprintf("%#x", a.val)}
}

// refPipe is the reference form of a PipeSpan call.
func refPipe(lane uint64, name string, start, end uint64, pc uint32, annulled string) refEvent {
	args := map[string]string{"pc": fmt.Sprintf("%#x", pc)}
	if annulled != "" {
		args["annulled"] = annulled
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	return refEvent{Name: name, Cat: "pipe", Ph: "X", Ts: start, Dur: dur, Pid: 1, Tid: TrackPipeBase + int(lane%PipeLanes), Args: args}
}

// call is one recorded event: it replays into a tracer and describes its
// reference form.
type call struct {
	record func(*Tracer)
	ref    refEvent
}

func span(tid int, cat, name string, ts, dur uint64, a Arg) call {
	return call{func(t *Tracer) { t.Span(tid, cat, name, ts, dur, a) },
		refEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur, Pid: 1, Tid: tid, Args: refArgs(a)}}
}

func instant(tid int, cat, name string, ts uint64, a Arg) call {
	return call{func(t *Tracer) { t.Instant(tid, cat, name, ts, a) },
		refEvent{Name: name, Cat: cat, Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t", Args: refArgs(a)}}
}

func pipe(lane uint64, name string, start, end uint64, pc uint32, annulled string) call {
	return call{func(t *Tracer) { t.PipeSpan([]byte(name), start, end, pc, annulled) },
		refPipe(lane, name, start, end, pc, annulled)}
}

// kindCalls is one event of every kind the simulator records, with the
// arguments its call sites pass.
func kindCalls() []call {
	return []call{
		pipe(0, "addi r1, r0, 0", 0, 17, 0, ""),
		pipe(1, "bne.sq r1, r2, -4", 12, 29, 0x6, ""),
		pipe(2, "nop", 13, 30, 0x7, "squash"),
		pipe(3, "add r11, r9, r9", 90, 95, 0x2a, "exception"),
		pipe(4, "ld r4, 0(r3)", 40, 40, 0xffffffff, ""), // zero duration
		instant(TrackMarks, "ctl", "branch-squash", 78, Arg{}),
		instant(TrackMarks, "ctl", "exception", 113, CauseArg(0x20)),
		span(TrackIcache, "cache", "imiss", 0, 11, AddrArg(0)),
		span(TrackEcache, "cache", "dmiss-read", 17, 9, AddrArg(0x4)),
		span(TrackEcache, "cache", "dmiss-write", 30, 9, AddrArg(0x2bffa)),
		span(TrackEcache, "cache", "flush", 4000, 276, Arg{}),
		span(TrackCoproc, "coproc", "busy-wait", 64, 3, Arg{}),
		span(TrackIcache, "cache", "imiss", 7, 0, AddrArg(0x10)), // zero duration
	}
}

// stream records calls into a fresh streaming tracer and returns the bytes.
func stream(t *testing.T, calls []call, chunk int) []byte {
	t.Helper()
	var out bytes.Buffer
	tr := &Tracer{Instrs: true}
	if err := tr.StartStream(&out, chunk); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		c.record(tr)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(calls) || tr.Dropped() != 0 {
		t.Fatalf("Len %d, Dropped %d after %d events", tr.Len(), tr.Dropped(), len(calls))
	}
	return out.Bytes()
}

func refs(calls []call) []refEvent {
	evs := make([]refEvent, len(calls))
	for i, c := range calls {
		evs[i] = c.ref
	}
	return evs
}

// TestEncoderMatchesReference pins each event kind, and the metadata
// preamble, line by line against the reference encoder.
func TestEncoderMatchesReference(t *testing.T) {
	calls := kindCalls()
	got := strings.Split(string(stream(t, calls, 0)), "\n")
	want := strings.Split(string(refDocument(t, refs(calls))), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, reference has %d", len(got), len(want))
	}
	metas := len(refMetas())
	for i := range want {
		if got[i] != want[i] {
			what := "frame"
			switch {
			case i >= 1 && i <= metas:
				what = "metadata preamble"
			case i > metas && i <= metas+len(calls):
				what = calls[i-metas-1].ref.Name
			}
			t.Errorf("line %d (%s):\n got %s\nwant %s", i+1, what, got[i], want[i])
		}
	}
}

// FuzzTraceEncode: for any event names, categories, annulled reasons, arg
// keys and numbers, the streamed document equals the reference encoder's.
func FuzzTraceEncode(f *testing.F) {
	f.Add("imiss", "cache", "squash", "addr", uint64(17), uint64(9), uint32(0x2bffa))
	f.Add(`say "hi"`, `back\slash`, "exception", "cause", uint64(0), uint64(0), uint32(0))
	f.Add("tab\there\nnl\r\b\f\x00\x1f", "\x7f", "a b c", "k\"ey", uint64(1<<63), uint64(1), uint32(0xffffffff))
	f.Add("<script>&amp;</script>", "a>b", "x&y", "<k>", uint64(5), uint64(5), uint32(16))
	f.Add("\xff\xfe bad utf8 \xc3", "\xe2\x80", "ok \u2713 \u00fcn\u00efcode", "", uint64(3), uint64(2), uint32(1))
	f.Add("line\u2028sep\u2029para", "\u2028", "\u2029", "\u2028", uint64(9), uint64(4), uint32(0x2028))
	f.Add("", "", "", "", uint64(0), uint64(0), uint32(0))
	f.Fuzz(func(t *testing.T, name, cat, annulled, key string, ts, dur uint64, val uint32) {
		a := Arg{key, val}
		calls := []call{
			span(TrackIcache, cat, name, ts, dur, a),
			instant(TrackMarks, cat, name, ts, a),
			pipe(0, name, ts, ts+dur, val, annulled),
			pipe(1, name, ts+dur, ts, val, annulled),
		}
		got := stream(t, calls, 1)
		want := refDocument(t, refs(calls))
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from reference\n got %q\nwant %q", got, want)
		}
		if !utf8.Valid(got) || !json.Valid(got) {
			t.Fatalf("encoder wrote invalid JSON: %q", got)
		}
	})
}

// TestTraceAllocs: once the stream's buffer has grown to its steady size,
// recording an event allocates nothing.
func TestTraceAllocs(t *testing.T) {
	tr := &Tracer{Instrs: true}
	if err := tr.StartStream(io.Discard, 0); err != nil {
		t.Fatal(err)
	}
	name := []byte("addi r3, r0, 4096")
	for i := 0; i < 4*DefaultStreamChunk; i++ {
		tr.PipeSpan(name, uint64(i), uint64(i+5), uint32(i), "squash")
	}
	for _, c := range []struct {
		kind string
		f    func()
	}{
		{"pipe span", func() { tr.PipeSpan(name, 100, 117, 0x1f, "") }},
		{"span", func() { tr.Span(TrackEcache, "cache", "dmiss-read", 100, 9, AddrArg(0x40)) }},
		{"instant", func() { tr.Instant(TrackMarks, "ctl", "exception", 100, CauseArg(0x20)) }},
	} {
		if n := testing.AllocsPerRun(10*DefaultStreamChunk, c.f); n != 0 {
			t.Errorf("%s: %v allocations per event, want 0", c.kind, n)
		}
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
}
