package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jsondoc"
)

// TestMain lets the tests run this command: with MIPSX_BENCH_MAIN set, the
// test binary is mipsx-bench.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mipsxBench runs the command with args and returns its exit code, stdout
// and stderr.
func mipsxBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_BENCH_MAIN=1")
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

// TestUsageErrors: an unknown experiment exits 2 before running anything,
// and so does -obs-window, with or without -scenario: windows are a
// mipsx-run option that streams, never part of a bench cell's result.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-only", "E99"}, `unknown experiment "E99"`},
		{[]string{"-obs-window", "5"}, "flag provided but not defined: -obs-window"},
		{[]string{"-scenario", "-obs-window", "5"}, "flag provided but not defined: -obs-window"},
	} {
		code, _, stderr := mipsxBench(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestCellRowsPartitionTheReport: the JSON report's per-cell attribution
// rows sum to the report's attribution and to its simulated-cycle total —
// each cycle is in exactly one row — and every row's ID is distinct and
// names the experiment.
func TestCellRowsPartitionTheReport(t *testing.T) {
	code, stdout, stderr := mipsxBench(t, "-only", "E1", "-parallel", "1", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	doc, err := experiments.ParseBenchDoc([]byte(stdout))
	if err != nil {
		t.Fatal(err)
	}
	sum := map[string]uint64{}
	var total uint64
	ids := map[string]bool{}
	for _, ct := range doc.CellTimings {
		if ids[ct.ID] || !strings.HasPrefix(ct.ID, "E1/") {
			t.Errorf("cell ID %q repeated or not named for E1", ct.ID)
		}
		ids[ct.ID] = true
		for k, v := range ct.Attribution {
			sum[k] += v
			total += v
		}
	}
	if !reflect.DeepEqual(sum, doc.Attribution) || total != doc.TotalCyclesSimulated {
		t.Fatalf("cell rows sum to %d cycles %v; report: %d cycles %v",
			total, sum, doc.TotalCyclesSimulated, doc.Attribution)
	}
	if uint64(len(doc.CellTimings)) != doc.Cells || doc.TotalCyclesSimulated == 0 {
		t.Fatalf("%d cell rows for %d cells, %d cycles", len(doc.CellTimings), doc.Cells, doc.TotalCyclesSimulated)
	}
}

// TestCheckComparesTotalsOverTheSameExperiments: -check compares the cycle
// total, and the attribution the baseline carries, when the run covers the
// baseline's experiments, so one edited cycle fails it; a run of fewer
// experiments than the baseline compares tables only.
func TestCheckComparesTotalsOverTheSameExperiments(t *testing.T) {
	code, stdout, stderr := mipsxBench(t, "-only", "E5", "-parallel", "1", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	dir := t.TempDir()
	write := func(name string, edit func(*experiments.BenchDoc)) string {
		doc, err := experiments.ParseBenchDoc([]byte(stdout))
		if err != nil {
			t.Fatal(err)
		}
		edit(doc)
		b, err := jsondoc.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The wall-clock ratio, like the totals, compares only the same
	// experiments: an -only E1 run against the full report prints none.
	for _, tc := range []struct {
		args       []string
		code       int
		want, none string
	}{
		{[]string{"-only", "E5", "-check", write("same.json", func(*experiments.BenchDoc) {})}, 0, "attribution matches: 10031 cycles", ""},
		{[]string{"-only", "E5", "-check", write("attr.json", func(d *experiments.BenchDoc) { d.Attribution["execute"]++ })}, 1, "attribution[execute] drifted", ""},
		{[]string{"-only", "E5", "-check", write("total.json", func(d *experiments.BenchDoc) { d.TotalCyclesSimulated++ })}, 1, "total_cycles_simulated drifted", ""},
		{[]string{"-only", "E1", "-check", "../../BENCH_pr.json"}, 0, "all 1 experiment tables match", "vs baseline"},
	} {
		code, _, stderr := mipsxBench(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || tc.none != "" && strings.Contains(stderr, tc.none) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q without %q", tc.args, code, stderr, tc.code, tc.want, tc.none)
		}
	}
}
