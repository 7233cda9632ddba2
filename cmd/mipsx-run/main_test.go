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

	"repro/internal/obs"
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

// TestStatsValues pins every -stats line of a plain run and of a -profile
// rebuild, which runs the program once, rebuilds it with the measured
// branch profile and runs the rebuild (bubblesort without -profile takes
// 53,633 cycles).
func TestStatsValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "fib", "-stats"}, `610
cycles            50669
instructions      50327 (nops 3947, squashed 0)
CPI               1.007
no-op fraction    7.8%
branches          1973 (taken 986, cycles/branch 2.00)
loads/stores      6907/6908
icache            0.1% miss, 221 stall cycles
ecache            0.2% miss, 270 stall cycles
ifetch cost       1.004 cycles
sustained MIPS    19.87 @ 20 MHz
`},
		{[]string{"-bench", "bubblesort", "-profile", "-stats"}, `1344699
-- profiled rebuild --
1344699
cycles            53566
instructions      52556 (nops 5270, squashed 132)
CPI               1.019
no-op fraction    10.3%
branches          4289 (taken 3178, cycles/branch 1.53)
loads/stores      6380/2286
icache            0.2% miss, 826 stall cycles
ecache            0.9% miss, 756 stall cycles
ifetch cost       1.016 cycles
sustained MIPS    19.62 @ 20 MHz
`},
	} {
		code, stdout, stderr := mipsxRun(t, c.args...)
		if code != 0 || stdout != c.want {
			t.Errorf("%v: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", c.args, code, stderr, stdout, c.want)
		}
	}
}

// TestProfileNeedsTinyc: an assembly input has nothing for -profile to
// rebuild, so the flag exits 2 and says what it needs.
func TestProfileNeedsTinyc(t *testing.T) {
	prog := filepath.Join("..", "..", "internal", "core", "testdata", "trace_program.s")
	code, stdout, stderr := mipsxRun(t, "-profile", "-stats", prog)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-profile needs -tiny or -bench") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming -profile", code, stdout, stderr)
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

// TestNegativeScenarioQuantumIsRejected: a negative -scenario-quantum exits
// 2, as a negative -obs-window does, instead of silently running the spec's
// default quantum.
func TestNegativeScenarioQuantumIsRejected(t *testing.T) {
	code, _, stderr := mipsxRun(t, "-scenario", "fib", "-scenario-quantum", "-5")
	if code != 2 || !strings.Contains(stderr, "-scenario-quantum") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming -scenario-quantum", code, stderr)
	}
}

// TestObsWindowOnlyStreams: -obs-window without -obs-window-out, and the
// reverse, exit 2 on both paths instead of computing windows nobody reads;
// together they stream a window series that parses, conserves and, under
// -scenario, carries the per-context breakdown.
func TestObsWindowOnlyStreams(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.jsonl")
	for _, args := range [][]string{
		{"-bench", "fib", "-obs-window", "512"},
		{"-scenario", "fib,sieve", "-obs-window", "512"},
		{"-bench", "fib", "-obs-window-out", out},
		{"-scenario", "fib,sieve", "-obs-window-out", out},
	} {
		code, _, stderr := mipsxRun(t, args...)
		if code != 2 || !strings.Contains(stderr, "-obs-window N and -obs-window-out FILE go together") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2", args, code, stderr)
		}
	}
	for _, args := range [][]string{
		{"-bench", "fib"},
		{"-scenario", "fib,sieve"},
	} {
		args = append(args, "-obs-window", "512", "-obs-window-out", out)
		if code, _, stderr := mipsxRun(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := obs.ParseWindowStream(f)
		f.Close()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := doc.Check(); err != nil || doc.Window != 512 || len(doc.Windows) < 2 {
			t.Fatalf("%v: %d windows of %d cycles, check %v", args, len(doc.Windows), doc.Window, err)
		}
		if scn := args[0] == "-scenario"; scn != (len(doc.Windows[0].Contexts) > 0) {
			t.Errorf("%v: first window's contexts %+v", args, doc.Windows[0].Contexts)
		}
	}
}

// TestStdoutWriteFailureExits: with stdout on a descriptor that rejects
// writes (a file opened read-only), the command exits 1 naming the write
// error instead of reporting success over output that never landed.
func TestStdoutWriteFailureExits(t *testing.T) {
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	prog := filepath.Join("..", "..", "internal", "core", "testdata", "trace_program.s")
	for _, args := range [][]string{{"-stats", prog}, {"-bench", "fib"}, {"-scenario", "fib,sieve"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MIPSX_RUN_MAIN=1")
		var errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = ro, &errb
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(errb.String(), "mipsx-run: writing stdout") {
			t.Errorf("%v: err %v, stderr %q; want exit 1 naming the write error", args, err, errb.String())
		}
	}
}
