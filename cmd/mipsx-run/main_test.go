package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run this command: with MIPSX_RUN_MAIN set, the
// test binary is mipsx-run.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxRun runs the command with args and returns its exit code, stdout and
// stderr.
func mipsxRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_RUN_MAIN=1")
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

// TestPipeCyclesCount: the cycles -pipe prints run on the same path as the
// rest, so they count toward the reported total and the -max-cycles budget.
func TestPipeCyclesCount(t *testing.T) {
	cyclesLine := func(args ...string) string {
		t.Helper()
		code, stdout, stderr := mipsxRun(t, append([]string{"-bench", "bubblesort", "-stats"}, args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		for _, l := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(l, "cycles ") {
				return l
			}
		}
		t.Fatalf("%v: no cycles line in\n%s", args, stdout)
		return ""
	}
	if plain, piped := cyclesLine(), cyclesLine("-pipe", "30"); plain != piped {
		t.Errorf("-pipe 30 reports %q, without it %q", piped, plain)
	}
	for _, args := range [][]string{
		{"-max-cycles", "53500"},
		{"-max-cycles", "53500", "-pipe", "30"},
	} {
		code, _, stderr := mipsxRun(t, append([]string{"-bench", "bubblesort"}, args...)...)
		if code != 1 || !strings.Contains(stderr, "no halt within") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and no halt", args, code, stderr)
		}
	}
}

// TestScenarioTraceOut: -trace-out under -scenario streams the scenario's
// trace, byte for byte the one the scenario tracer has always written.
func TestScenarioTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	if code, _, stderr := mipsxRun(t, "-scenario", "bubblesort,sieve", "-trace-out", out); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "87abcbda391437a45cb8918406f07fb126e08e925fcf643045c0e64d7b7b24e5"
	if got := hex.EncodeToString(sum[:]); len(b) != 83_220 || got != want {
		t.Fatalf("scenario trace: %d bytes, sha256 %s; want 83220 bytes, %s", len(b), got, want)
	}
}

// TestScenarioRefusesIgnoredFlags: a single-program flag the scenario path
// would not honor exits 2 and names the flag.
func TestScenarioRefusesIgnoredFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-pipe", "3"}, {"-profile-out", "p.json"}, {"-stats"}, {"-check"}, {"-lint"},
		{"-max-cycles", "5"}, {"-bench", "fib"}, {"-tiny"}, {"-profile"}, {"prog.s"},
	} {
		args := append([]string{"-scenario", "bubblesort,sieve"}, extra...)
		code, _, stderr := mipsxRun(t, args...)
		if code != 2 || !strings.Contains(stderr, extra[0]) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", extra, code, stderr, extra[0])
		}
	}
}

// TestTraceOutMatchesGolden: -trace-out on the golden-trace workload writes
// the committed golden trace (make stream-gate checks the same with cmp).
func TestTraceOutMatchesGolden(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	out := filepath.Join(t.TempDir(), "t.json")
	if code, _, stderr := mipsxRun(t, "-trace-out", out, filepath.Join(testdata, "trace_program.s")); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(testdata, "trace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-trace-out wrote %d bytes that differ from trace_golden.json (%d bytes)", len(got), len(want))
	}
}
