package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run this command: with MIPSX_ASM_MAIN set, the
// test binary is mipsx-asm.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_ASM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxAsm runs the command with args and returns its exit code and
// stderr.
func mipsxAsm(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_ASM_MAIN=1")
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
// scheme or the command exits 2 — before reorganizing (a 3-slot scheme used
// to panic the reorganizer) and before linting (it used to lint a 3-slot
// machine that does not exist and exit 0).
func TestSchemeFlagsAreParsedOnce(t *testing.T) {
	prog := program(t)
	for _, args := range [][]string{
		{"-reorg", "-slots", "3"},
		{"-lint", "-slots", "3"},
		{"-reorg", "-squash", "sometimes"},
	} {
		code, stderr := mipsxAsm(t, append(args, prog)...)
		if code != 2 || !strings.Contains(stderr, "unknown branch scheme") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and an unknown-scheme error", args, code, stderr)
		}
	}
	for _, args := range [][]string{
		{"-reorg", "-slots", "1", "-squash", "always"},
		{"-lint", "-reorg"},
	} {
		if code, stderr := mipsxAsm(t, append(args, prog)...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 0", args, code, stderr)
		}
	}
}

// TestLayoutBounds: a -base that does not fit in 32 bits exits 2 (it used
// to be truncated to its low 32 bits); an image that would wrap past the
// top of the address space, or a .space above the assembler's cap, exits 1
// with the assembler's line error before the image is allocated.
func TestLayoutBounds(t *testing.T) {
	prog := program(t)
	huge := filepath.Join(t.TempDir(), "huge.s")
	if err := os.WriteFile(huge, []byte(".space 2147483647\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-base", "4294967296", prog}, 2, "-base 4294967296 does not fit in 32 bits"},
		{[]string{"-base", "4294967295", prog}, 1, "asm: line 2: image at base 0xffffffff wraps"},
		{[]string{huge}, 1, "asm: line 1: .space 2147483647 is outside"},
	} {
		if code, stderr := mipsxAsm(t, tc.args...); code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.msg)
		}
	}
	// The program's six words end exactly at the top of the address space.
	if code, stderr := mipsxAsm(t, "-base", "4294967290", prog); code != 0 {
		t.Errorf("-base 4294967290: exit %d, stderr %q; want exit 0", code, stderr)
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
	for _, args := range [][]string{{program(t)}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MIPSX_ASM_MAIN=1")
		var errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = ro, &errb
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(errb.String(), "mipsx-asm: writing stdout") {
			t.Errorf("%v: err %v, stderr %q; want exit 1 naming the write error", args, err, errb.String())
		}
	}
}
