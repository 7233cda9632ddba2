package obs

// The trace encoder: appends one Chrome trace-event JSON object per event
// with no reflection and no allocation. It writes exactly what
// encoding/json.Marshal wrote for the event struct the tracer used to
// buffer — field order name, cat, ph, ts, dur, pid, tid, s, args; cat, dur,
// s and args omitted when empty; arg keys sorted; strings HTML-safe escaped
// — so traces stay byte-identical (the reference encoder in the tests pins
// this, including under fuzzing).

import (
	"strconv"
	"unicode/utf8"
)

// traceHeader/traceFooter frame the JSON object; events sit between them
// one per line.
const (
	traceHeader = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
	traceFooter = "]}\n"
)

// preamble is the header and the metadata events naming the process and
// every track, comma-separated, with the last line left open like a held
// event.
var preamble = func() []byte {
	b := appendMeta([]byte(traceHeader), "process_name", 0, "mipsx-sim")
	for lane := 0; lane < PipeLanes; lane++ {
		b = appendMeta(append(b, ",\n"...), "thread_name", TrackPipeBase+lane, "pipe-"+strconv.Itoa(lane))
	}
	for _, tr := range []struct {
		tid  int
		name string
	}{{TrackIcache, "icache"}, {TrackEcache, "ecache"}, {TrackCoproc, "coproc"}, {TrackMarks, "marks"}} {
		b = appendMeta(append(b, ",\n"...), "thread_name", tr.tid, tr.name)
	}
	return b
}()

// appendMeta appends a metadata event (ph "M") naming a process or track.
func appendMeta(b []byte, name string, tid int, arg string) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	b = append(b, `,"ph":"M","pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, arg)
	return append(b, "}}"...)
}

// appendHead appends an event's fields from its opening brace through tid,
// leaving the object open for s and args.
func appendHead(b []byte, name, cat, ph string, ts, dur uint64, tid int) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, cat)
	}
	b = append(b, `,"ph":`...)
	b = appendString(b, ph)
	b = append(b, `,"ts":`...)
	return appendClock(b, ts, dur, tid)
}

// appendClock appends an event's timestamp value, its duration when
// nonzero, pid and tid.
func appendClock(b []byte, ts, dur uint64, tid int) []byte {
	b = strconv.AppendUint(b, ts, 10)
	b = appendDur(b, dur)
	b = append(b, `,"pid":1,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// appendDur appends an event's duration field, omitted when zero. A pipe
// span's duration is usually one digit, written as one byte.
func appendDur(b []byte, dur uint64) []byte {
	if dur == 0 {
		return b
	}
	b = append(b, `,"dur":`...)
	if dur < 10 {
		return append(b, byte('0'+dur))
	}
	return strconv.AppendUint(b, dur, 10)
}

// pipeTails holds, for each pipe lane, a pipe span's bytes from pid to the
// opening of its args object: `,"pid":1,"tid":N,"args":{`.
var pipeTails = func() (t [PipeLanes]string) {
	for lane := range t {
		t[lane] = `,"pid":1,"tid":` + strconv.Itoa(TrackPipeBase+lane) + `,"args":{`
	}
	return t
}()

// tsStep is the largest forward step tsMemo advances in place: a single
// digit, so the step is one add at the last digit and a carry of one.
const tsStep = 9

// tsMemo is the decimal text of the last pipe span's start. Pipe spans are
// recorded in retirement order, which is fetch order, so consecutive starts
// are mostly one cycle apart, or a miss's stall apart. A start up to tsStep
// past the previous one is its text plus the step, added at the last digit
// with carry. A backward step, a larger jump, or a carry into a new leading
// digit formats the number afresh into the same array. Either way the text
// is exactly strconv's, so trace bytes do not depend on the memo.
type tsMemo struct {
	v    uint64
	n    int      // digits in text; 0 before the first start
	text [20]byte // v in decimal; 20 digits hold any uint64
}

// at returns v in decimal and makes it the memo's value. The slice is
// valid until the next call.
func (m *tsMemo) at(v uint64) []byte {
	if v < m.v || v-m.v > tsStep || m.n == 0 {
		return m.format(v)
	}
	i := m.n - 1
	x := m.text[i] + byte(v-m.v)
	for x > '9' {
		m.text[i] = x - 10
		if i--; i < 0 {
			return m.format(v)
		}
		x = m.text[i] + 1
	}
	m.text[i] = x
	m.v = v
	return m.text[:m.n]
}

// format writes v's text without the memo; the array's capacity holds it,
// so nothing is allocated.
func (m *tsMemo) format(v uint64) []byte {
	m.v, m.n = v, len(strconv.AppendUint(m.text[:0], v, 10))
	return m.text[:m.n]
}

// AppendPipeLabel appends the label of the pipe spans of the instruction
// named name at pc to b: the bytes those spans share whenever it retires.
// A label is two runs of bytes. Its head is the span from its opening
// brace to the timestamp, `{"name":<name>,"cat":"pipe","ph":"X","ts":`;
// its tail is the pc argument through the closing braces,
// `"pc":"0x…"}}`. It returns b and the head's length. PipeSpan writes a
// span from a label, so a label encoded once serves every retirement.
func AppendPipeLabel(b, name []byte, pc uint32) ([]byte, int) {
	start := len(b)
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	b = append(b, `,"cat":"pipe","ph":"X","ts":`...)
	head := len(b) - start
	b = append(b, `"pc":`...)
	b = appendHex(b, pc)
	return append(b, "}}"...), head
}

// appendArg appends the args object holding arg, if any, and closes the
// event.
func appendArg(b []byte, arg Arg) []byte {
	if arg.key != "" {
		b = append(b, `,"args":{`...)
		b = appendString(b, arg.key)
		b = append(b, ':')
		b = appendHex(b, arg.val)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendHex appends v as the JSON string fmt's %#x renders: "0x1f".
func appendHex(b []byte, v uint32) []byte {
	b = append(b, `"0x`...)
	b = strconv.AppendUint(b, uint64(v), 16)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way encoding/json
// does with HTML escaping on: quote, backslash and control bytes escaped
// (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as \u003c,
// \u003e and \u0026, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
