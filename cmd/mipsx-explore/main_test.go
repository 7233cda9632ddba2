package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run this command: with MIPSX_EXPLORE_MAIN set,
// the test binary is mipsx-explore.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_EXPLORE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxExplore runs the command with args and returns its exit code,
// stdout and stderr.
func mipsxExplore(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_EXPLORE_MAIN=1")
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

// TestInputErrors: a repeated or unknown benchmark, a bad axis path and a
// sweep past the point cap exit 1 with a message naming the problem before
// any cell runs; a positional argument is a usage error.
func TestInputErrors(t *testing.T) {
	big := []string{}
	for _, p := range []string{"icache.sets", "icache.ways", "ecache.size_words", "bus.latency", "bus.per_word"} {
		big = append(big, "-axis", p+"=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20")
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-benches", "fib,fib"}, 1, `benchmark "fib" is repeated`},
		{[]string{"-benches", "fib,nosuch"}, 1, `unknown benchmark "nosuch" (have bubblesort,`},
		{[]string{"-axis", "icache.setz=2,4", "-benches", "fib"}, 1, "setz"},
		{append(big, "-benches", "fib"), 1, "more than 4096 points"},
		{[]string{"extra"}, 2, "usage"},
	} {
		code, _, stderr := mipsxExplore(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}

// TestCheckDrift: -check passes against the document the same sweep wrote
// and exits 1 when one recorded number differs.
func TestCheckDrift(t *testing.T) {
	args := []string{"-axis", "icache.sets=8", "-benches", "fib"}
	code, doc, stderr := mipsxExplore(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	dir := t.TempDir()
	same, drifted := filepath.Join(dir, "same.json"), filepath.Join(dir, "drifted.json")
	if err := os.WriteFile(same, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := mipsxExplore(t, append(args, "-check", same)...); code != 0 {
		t.Fatalf("unchanged document: exit %d: %s", code, stderr)
	}
	bad := strings.Replace(doc, `"code_words": `, `"code_words": 1`, 1)
	if bad == doc {
		t.Fatal("no code_words field to perturb")
	}
	if err := os.WriteFile(drifted, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := mipsxExplore(t, append(args, "-check", drifted)...); code != 1 || !strings.Contains(stderr, "drifted") {
		t.Fatalf("drifted document: exit %d, stderr %q; want exit 1 and drift", code, stderr)
	}
}

// TestCheckRejectsForeignBaseline: a -check file that is not an explorer
// document (another schema, or an unknown field) exits 1 with one line
// naming the problem, not a drift report of both documents.
func TestCheckRejectsForeignBaseline(t *testing.T) {
	args := []string{"-axis", "icache.sets=8", "-benches", "fib"}
	code, doc, stderr := mipsxExplore(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(strings.Replace(doc, `"benchmarks"`, `"benchmarkz"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"../../SCENARIO_baseline.json": `not an explorer document (schema "mipsx-scenario/v1"`,
		typo:                           `unknown field "benchmarkz"`,
	} {
		code, _, stderr := mipsxExplore(t, append(args, "-check", path)...)
		if code != 1 || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-check %s: exit %d, stderr %q; want exit 1 and one line with %q", path, code, stderr, want)
		}
	}
}
