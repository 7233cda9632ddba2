package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsondoc"
	"repro/internal/lint"
)

// TestMain lets the tests run this command: with MIPSX_LINT_MAIN set, the
// test binary is mipsx-lint.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_LINT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxLint runs the command with args and returns its exit code, stdout
// and stderr.
func mipsxLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_LINT_MAIN=1")
	var outb, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outb, &errb
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), outb.String(), errb.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, outb.String(), errb.String()
}

// program writes a small hazard-free program and returns its path.
func program(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.s")
	src := "main:\taddi r1, r0, 3\n\tnop\n\tbeq r1, r0, main\n\tnop\n\tnop\n\thalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSchemeFlagsAreParsedOnce: -slots and -squash name a Table 1 branch
// scheme or the command exits 2 with the parser's message.
func TestSchemeFlagsAreParsedOnce(t *testing.T) {
	prog := program(t)
	for _, args := range [][]string{
		{"-slots", "3"},
		{"-slots", "0", "-reorg"},
		{"-squash", "sometimes", "-reorg"},
	} {
		code, _, stderr := mipsxLint(t, append(args, prog)...)
		if code != 2 || !strings.Contains(stderr, "unknown branch scheme") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and an unknown-scheme error", args, code, stderr)
		}
	}
	for _, args := range [][]string{{"-quiet"}, {"-quiet", "-reorg", "-slots", "1", "-squash", "none"}} {
		if code, _, stderr := mipsxLint(t, append(args, prog)...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 0", args, code, stderr)
		}
	}
}

// TestLayoutBounds: a -base that does not fit in 32 bits, an image that
// would wrap past the top of the address space, and a .space above the
// assembler's cap are input errors (exit 2), reported before the image is
// allocated.
func TestLayoutBounds(t *testing.T) {
	prog := program(t)
	huge := filepath.Join(t.TempDir(), "huge.s")
	if err := os.WriteFile(huge, []byte(".space 2147483647\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-base", "4294967296", prog}, "-base 4294967296 does not fit in 32 bits"},
		{[]string{"-base", "4294967295", prog}, "asm: line 2: image at base 0xffffffff wraps"},
		{[]string{huge}, "asm: line 1: .space 2147483647 is outside"},
	} {
		if code, _, stderr := mipsxLint(t, tc.args...); code != 2 || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.msg)
		}
	}
}

// TestCostJSON: -cost -json prints the cost model as a mipsx-lint-cost/v1
// document, carrying the roll-up when -profile supplies a profile.
func TestCostJSON(t *testing.T) {
	prog := program(t)
	// One pass over the program: every instruction written back once and
	// the branch at pc 2 not taken.
	prof := filepath.Join(t.TempDir(), "p.json")
	const doc = `{"schema": "mipsx-pcprofile/v1", "entries": [{"pc": 0, "wb": 1}, {"pc": 1, "wb": 1},
		{"pc": 2, "wb": 1, "not_taken": 1}, {"pc": 3, "wb": 1}, {"pc": 4, "wb": 1}, {"pc": 5, "wb": 1}]}`
	if err := os.WriteFile(prof, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args    []string
		rollsUp bool
	}{
		{[]string{"-cost", "-json", prog}, false},
		{[]string{"-cost", "-json", "-profile", prof, prog}, true},
	} {
		code, stdout, stderr := mipsxLint(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr)
		}
		rep, err := jsondoc.Parse[lint.CostReport]([]byte(stdout), lint.CostSchema, "a cost report")
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, stdout)
		}
		if len(rep.Blocks) == 0 || (rep.Prediction != nil) != tc.rollsUp {
			t.Fatalf("%v: %d blocks, prediction %+v; want blocks and a prediction only with -profile", tc.args, len(rep.Blocks), rep.Prediction)
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
	for _, args := range [][]string{{"-suite", "-json"}, {"-json", program(t)}, {"-cost", "-json", program(t)}, {program(t)}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MIPSX_LINT_MAIN=1")
		var errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = ro, &errb
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(errb.String(), "mipsx-lint: writing stdout") {
			t.Errorf("%v: err %v, stderr %q; want exit 1 naming the write error", args, err, errb.String())
		}
	}
}
