package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// mix is a sequence of n events cycling through spans, instants and pipe
// spans, with their reference forms.
func mix(n int) []call {
	calls := make([]call, n)
	var lane uint64
	for i := range calls {
		switch i % 3 {
		case 0:
			calls[i] = span(TrackIcache, "cache", "imiss", uint64(i*4), 14, AddrArg(uint32(i*32)))
		case 1:
			calls[i] = instant(TrackMarks, "ctl", "exception", uint64(i*4+1), CauseArg(uint32(i)))
		default:
			calls[i] = pipe(lane, "add r1, r2, r3", uint64(i*4), uint64(i*4+5), uint32(i), "")
			lane++
		}
	}
	return calls
}

func TestStreamedTraceByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		calls := mix(n)
		streamed := &Tracer{}
		var got bytes.Buffer
		if err := streamed.StartStream(&got, 16); err != nil {
			t.Fatal(err)
		}
		if !streamed.Streaming() {
			t.Fatal("Streaming() false after StartStream")
		}
		for _, c := range calls {
			c.record(streamed)
		}
		if err := streamed.CloseStream(); err != nil {
			t.Fatal(err)
		}
		if streamed.Len() != n || streamed.Dropped() != 0 {
			t.Fatalf("n=%d: Len %d, Dropped %d", n, streamed.Len(), streamed.Dropped())
		}
		if want := refDocument(t, refs(calls)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("n=%d: streamed trace differs from the reference encoder\nstreamed:\n%s\nreference:\n%s",
				n, got.String(), want)
		}
		if !json.Valid(got.Bytes()) {
			t.Fatalf("n=%d: streamed trace is not valid JSON", n)
		}
	}
}

func TestStreamLineFraming(t *testing.T) {
	// The streaming contract: every line between the header and footer is a
	// self-contained JSON object once a trailing comma is stripped, so a
	// live reader can parse an unclosed stream line by line.
	tr := &Tracer{}
	var out bytes.Buffer
	if err := tr.StartStream(&out, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range mix(9) {
		c.record(tr)
	}
	// Parse the live (unclosed) bytes: only complete lines have been
	// written, and the newest event is still held back.
	if !strings.HasSuffix(out.String(), ",\n") {
		t.Fatalf("live stream ends mid-line: ...%q", out.String()[max(0, out.Len()-16):])
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != strings.TrimSuffix(traceHeader, "\n") {
		t.Fatalf("stream does not open with the trace header: %q", lines[0])
	}
	if got, want := len(lines)-1-len(refMetas()), 8; got != want || tr.Len() != want {
		t.Fatalf("live stream holds %d events, Len %d; want %d (all but the held one)", got, tr.Len(), want)
	}
	for i, line := range lines[1:] {
		line = strings.TrimSuffix(line, ",")
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("live line %d is not self-contained JSON: %v\n%q", i+2, err, line)
		}
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), traceFooter) {
		t.Fatalf("closed stream lacks footer: ...%q", out.String()[len(out.String())-8:])
	}
}

func TestStartStreamRejectsMisuse(t *testing.T) {
	tr := &Tracer{}
	var a, b bytes.Buffer
	if err := tr.StartStream(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartStream(&b, 0); err == nil {
		t.Fatal("second StartStream must fail")
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err == nil {
		t.Fatal("CloseStream on a non-streaming tracer must fail")
	}

	late := &Tracer{}
	late.Span(TrackMarks, "c", "n", 0, 1, Arg{})
	if err := late.StartStream(&a, 0); err == nil {
		t.Fatal("StartStream after events were recorded must fail")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestStreamSurfacesWriteErrors(t *testing.T) {
	tr := &Tracer{}
	// Budget covers the header and metadata preamble; the failure lands in
	// the middle of the event stream.
	if err := tr.StartStream(&failWriter{budget: 2048}, 1); err != nil {
		t.Fatal(err)
	}
	failedAt := -1
	for i, c := range mix(50) {
		before := tr.Len()
		c.record(tr)
		if failedAt < 0 && tr.Dropped() > 0 {
			failedAt = i
		}
		if failedAt >= 0 && tr.Len() != before {
			t.Fatalf("event %d: Len rose from %d to %d after the writer failed", i, before, tr.Len())
		}
	}
	written := tr.Len()
	if failedAt < 0 || written == 0 {
		t.Fatalf("the write failure did not land mid-stream (failed at %d, %d written)", failedAt, written)
	}
	if got := uint64(written) + tr.Dropped(); got != 50 {
		t.Fatalf("Len %d + Dropped %d = %d, want every one of the 50 events", written, tr.Dropped(), got)
	}
	if err := tr.CloseStream(); err == nil {
		t.Fatal("CloseStream must report the stream's write error")
	}
	tr.Instant(TrackMarks, "ctl", "late", 1, Arg{})
	if tr.Len() != written || tr.Dropped() != uint64(51-written) {
		t.Fatalf("after close: Len %d, Dropped %d; want %d, %d", tr.Len(), tr.Dropped(), written, 51-written)
	}
}
