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
func appendHead[S []byte | string](b []byte, name S, cat, ph string, ts, dur uint64, tid int) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, cat)
	}
	b = append(b, `,"ph":`...)
	b = appendString(b, ph)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	if dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, dur, 10)
	}
	b = append(b, `,"pid":1,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
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
