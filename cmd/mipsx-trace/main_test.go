package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMain lets the tests run this command: with MIPSX_TRACE_MAIN set, the
// test binary is mipsx-trace.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_TRACE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxTrace runs the command with args and returns its exit code, stdout
// and stderr.
func mipsxTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_TRACE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), out.String(), errb.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errb.String()
}

// TestTraceFlagsAreValidated: a trace length or code size below zero or
// above its cap, an Icache fetch-back or miss penalty the machine spec
// rejects, and a -follow poll interval that would spin exit 2 with a message
// naming the problem instead of panicking, exhausting memory or running a
// cache that cannot exist.
func TestTraceFlagsAreValidated(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-refs", "-1"}, "-refs"},
		{[]string{"-refs", "10000001"}, "-refs must be in [0, 10000000]"},
		{[]string{"-refs", "1099511627776"}, "-refs"},
		{[]string{"-code-kwords", "-1"}, "-code-kwords"},
		{[]string{"-code-kwords", "200000"}, "-code-kwords must be in [0, 4096]"},
		{[]string{"-follow", "w.jsonl", "-interval", "0"}, "-interval > 0"},
		{[]string{"-follow", "w.jsonl", "-interval", "-1s", "-once"}, "-interval > 0"},
		{[]string{"-fetchback", "0"}, "icache.fetch_back = 0"},
		{[]string{"-penalty", "0"}, "icache.miss_penalty = 0"},
		{[]string{"-fetchback", "99"}, "icache.fetch_back = 99 exceeds block_words = 16"},
	} {
		code, _, stderr := mipsxTrace(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.want)
		}
	}
	code, stdout, stderr := mipsxTrace(t, "-refs", "1000", "-fetchback", "1", "-penalty", "3")
	if code != 0 || !strings.Contains(stdout, "fetch-back 1, 3-cycle miss") {
		t.Fatalf("valid flags: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	// The caps admit the largest sizes the experiments use.
	code, stdout, stderr = mipsxTrace(t, "-refs", "300000", "-code-kwords", "160")
	if code != 0 || !strings.Contains(stdout, "163840 words static code") {
		t.Fatalf("experiment sizes: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

const sampleStream = `{"schema":"mipsx-obswin/v1","window":16}
{"index":0,"start":0,"cycles":16,"causes":[{"cause":"execute","cycles":14},{"cause":"icache-miss","cycles":2}]}
{"index":1,"start":16,"cycles":10,"causes":[{"cause":"execute","cycles":10}],"contexts":[{"context":"prog","cycles":10,"causes":[{"cause":"execute","cycles":10}]}]}
`

func TestFollowStateReplaysStream(t *testing.T) {
	st := &followState{}
	var fresh int
	for _, line := range strings.Split(sampleStream, "\n") {
		ok, err := st.feedLine([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fresh++
		}
	}
	if fresh != 2 || st.windows != 2 || st.cycles != 26 {
		t.Fatalf("fresh=%d windows=%d cycles=%d, want 2/2/26", fresh, st.windows, st.cycles)
	}
	var out strings.Builder
	st.render(&out)
	s := out.String()
	for _, want := range []string{"window 1", "2 windows, 26 cycles", "context prog", "cumulative", "conservation: sum(causes) == 26 cycles ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFollowStateRejectsBadStream(t *testing.T) {
	st := &followState{}
	if _, err := st.feedLine([]byte(`{"schema":"mipsx-obs/v1"}`)); err == nil {
		t.Fatal("wrong-schema header must be rejected")
	}
	ok := &followState{}
	if _, err := ok.feedLine([]byte(`{"schema":"mipsx-obswin/v1","window":16}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.feedLine([]byte(`{nope`)); err == nil {
		t.Fatal("malformed window line must be rejected")
	}
	// A window violating per-window conservation fails loudly mid-stream.
	if _, err := ok.feedLine([]byte(`{"index":0,"start":0,"cycles":9,"causes":[{"cause":"execute","cycles":5}]}`)); err == nil {
		t.Fatal("non-conserving window must be rejected")
	}

	// Streams viz rejects as a whole: every line but the last is accepted,
	// and the last must be rejected as it arrives.
	lines := strings.Split(sampleStream, "\n")
	for name, stream := range map[string][]string{
		"window size 0":   {`{"schema":"mipsx-obswin/v1","window":0}`},
		"repeated window": {lines[0], lines[1], lines[1]},
		"short non-final window": {lines[0],
			`{"index":0,"start":0,"cycles":10,"causes":[{"cause":"execute","cycles":10}]}`,
			`{"index":1,"start":10,"cycles":16,"causes":[{"cause":"execute","cycles":16}]}`},
	} {
		st := &followState{}
		for i, line := range stream {
			_, err := st.feedLine([]byte(line))
			if last := i == len(stream)-1; last && err == nil {
				t.Errorf("%s: line %d accepted, want an error", name, i+1)
			} else if !last && err != nil {
				t.Errorf("%s: line %d rejected: %v", name, i+1, err)
				break
			}
		}
	}
}

func TestRenderWindowDocFailsOnViolation(t *testing.T) {
	doc := &obs.WindowDoc{Schema: obs.WindowSchema, Window: 8, Windows: []obs.Window{
		{Index: 0, Start: 0, Cycles: 8, Causes: []obs.CauseCycles{{Cause: "execute", Cycles: 5}}},
	}}
	var out strings.Builder
	if err := renderWindowDoc(doc, &out); err == nil {
		t.Fatal("renderWindowDoc must fail on a non-conserving stream")
	}
	if out.Len() != 0 {
		t.Fatalf("no partial table may be printed on failure:\n%s", out.String())
	}
}

// TestVizNamesFileOfBadDocument: a bench document that fails strict
// parsing (here a mistyped top-level key) exits 1 with an error naming the
// file and the field.
func TestVizNamesFileOfBadDocument(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_pr.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_typo.json")
	bad := strings.Replace(string(b), "{", `{"experimentz": [],`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := mipsxTrace(t, "viz", path)
	if code != 1 || !strings.Contains(stderr, path) || !strings.Contains(stderr, "experimentz") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming %s and experimentz", code, stderr, path)
	}
}
