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

// pipe records a pipe span from the label AppendPipeLabel builds for name
// and pc.
func pipe(lane uint64, name string, start, end uint64, pc uint32, annulled string) call {
	label, head := AppendPipeLabel(nil, []byte(name), pc)
	return call{func(t *Tracer) { t.PipeSpan(label, head, start, end, annulled) },
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

// carryCalls is 4-cycle pipe spans on consecutive lanes from lane whose
// starts cross the digit-count changes 9→10, 99→100 and
// 999,999→1,000,000, go up to 2^64−1 and round to 0, with zero, small,
// backward and larger-than-memo steps between them.
func carryCalls(lane uint64) []call {
	starts := []uint64{
		7, 8, 9, 10, 10, 19, 18, // 9→10 by one, a step of 9, one back
		95, 99, 100, 101, 111, 100, // 99→100 by one, a jump of 10, back across it
		999_990, 999_999, 1_000_000, 1_000_009, 999_999, 1_000_008, // 999,999→1,000,000 by one and by 9
		1<<64 - 12, 1<<64 - 11, 1<<64 - 2, 1<<64 - 1, // up to 2^64−1
		3, 0, 9, // past it: round to 3, back to 0, then a step of 9
	}
	calls := make([]call, len(starts))
	for i, s := range starts {
		calls[i] = pipe(lane+uint64(i), "add r1, r2, r3", s, s+4, uint32(i), "")
	}
	return calls
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

// TestEncoderMatchesReference pins each event kind, the metadata preamble
// and pipe-span starts across digit-count changes line by line against the
// reference encoder.
func TestEncoderMatchesReference(t *testing.T) {
	calls := append(kindCalls(), carryCalls(PipeLanes)...)
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
// Its pipe spans are written from labels built from the fuzzed name and pc.
// Then comes a run of pipe spans whose starts begin at base and step by
// each byte of steps read as a signed number: by zero, by a few cycles,
// backwards, and past the timestamp memo's step.
func FuzzTraceEncode(f *testing.F) {
	f.Add("imiss", "cache", "squash", "addr", uint64(17), uint64(9), uint32(0x2bffa), uint64(17), []byte{1, 1, 0, 3})
	f.Add(`say "hi"`, `back\slash`, "exception", "cause", uint64(0), uint64(0), uint32(0), uint64(0), []byte{})
	f.Add("tab\there\nnl\r\b\f\x00\x1f", "\x7f", "a b c", "k\"ey", uint64(1<<63), uint64(1), uint32(0xffffffff), uint64(1<<63), []byte{0x80, 0x7f})
	f.Add("<script>&amp;</script>", "a>b", "x&y", "<k>", uint64(5), uint64(5), uint32(16), uint64(5), []byte{9, 10, 0xf6})
	f.Add("\xff\xfe bad utf8 \xc3", "\xe2\x80", "ok \u2713 \u00fcn\u00efcode", "", uint64(3), uint64(2), uint32(1), uint64(3), []byte{2})
	f.Add("line\u2028sep\u2029para", "\u2028", "\u2029", "\u2028", uint64(9), uint64(4), uint32(0x2028), uint64(9), []byte{1, 0xff})
	f.Add("", "", "", "", uint64(0), uint64(0), uint32(0), uint64(0), []byte(nil))
	// Runs across digit-count changes: 9→10, 99→100, 999,999→1,000,000,
	// up to 2^64−1, and from 2^64−1 round to 3.
	f.Add("add r1, r2, r3", "pipe", "", "", uint64(0), uint64(4), uint32(0), uint64(7), []byte{1, 1, 1, 9, 0xff})
	f.Add("add r1, r2, r3", "pipe", "", "", uint64(0), uint64(4), uint32(0), uint64(95), []byte{4, 0, 1, 1, 10, 0xf5})
	f.Add("add r1, r2, r3", "pipe", "", "", uint64(0), uint64(4), uint32(0), uint64(999_990), []byte{9, 1, 1, 0x80, 9})
	f.Add("add r1, r2, r3", "pipe", "squash", "", uint64(0), uint64(4), uint32(0), uint64(1<<64-12), []byte{1, 9, 1})
	f.Add("add r1, r2, r3", "pipe", "", "", uint64(1<<64-1), uint64(0), uint32(0), uint64(1<<64-1), []byte{4, 0xfc, 0xff, 1})
	f.Fuzz(func(t *testing.T, name, cat, annulled, key string, ts, dur uint64, val uint32, base uint64, steps []byte) {
		a := Arg{key, val}
		calls := []call{
			span(TrackIcache, cat, name, ts, dur, a),
			instant(TrackMarks, cat, name, ts, a),
			pipe(0, name, ts, ts+dur, val, annulled),
			pipe(1, name, ts+dur, ts, val, annulled),
		}
		start := base
		for i := 0; i <= min(len(steps), 64); i++ {
			if i > 0 {
				start += uint64(int8(steps[i-1]))
			}
			calls = append(calls, pipe(uint64(2+i), name, start, start+dur, val, annulled))
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
	label, head := AppendPipeLabel(nil, []byte("addi r3, r0, 4096"), 0x1f)
	for i := 0; i < 4*DefaultStreamChunk; i++ {
		tr.PipeSpan(label, head, uint64(i), uint64(i+5), "squash")
	}
	// starts records pipe spans whose starts cycle through from, so each
	// span after the first steps from the one before it as listed.
	starts := func(from ...uint64) func() {
		i := 0
		return func() {
			tr.PipeSpan(label, head, from[i], from[i]+17, "")
			i = (i + 1) % len(from)
		}
	}
	for _, c := range []struct {
		kind string
		f    func()
	}{
		{"pipe span", func() { tr.PipeSpan(label, head, 100, 117, "") }},
		{"pipe span, start a few cycles on", starts(100, 101, 104, 113)},
		{"pipe span, backward start", starts(100, 99, 98, 97)},
		{"pipe span, jump", starts(100, 1000, 100_000, 1<<40)},
		{"pipe span, digit-count change", starts(9, 10, 99, 100, 999_999, 1_000_000, 1<<64-1)},
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
