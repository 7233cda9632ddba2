package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// mipsxLint runs the command with args and returns its exit code and
// stderr.
func mipsxLint(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_LINT_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), errb.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, errb.String()
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
		code, stderr := mipsxLint(t, append(args, prog)...)
		if code != 2 || !strings.Contains(stderr, "unknown branch scheme") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and an unknown-scheme error", args, code, stderr)
		}
	}
	for _, args := range [][]string{{"-quiet"}, {"-quiet", "-reorg", "-slots", "1", "-squash", "none"}} {
		if code, stderr := mipsxLint(t, append(args, prog)...); code != 0 {
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
		if code, stderr := mipsxLint(t, tc.args...); code != 2 || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.msg)
		}
	}
}
