package tinyc

import (
	"strings"
	"testing"

	"repro/internal/reorg"
	"repro/internal/vaxlike"
)

func runVax(t *testing.T, src string) (*vaxlike.Machine, string) {
	t.Helper()
	code, err := GenerateVAX(src)
	if err != nil {
		t.Fatalf("vax build: %v", err)
	}
	var sb strings.Builder
	m := vaxlike.New(code, &sb)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("vax run: %v", err)
	}
	return m, sb.String()
}

func TestVaxBackendBasics(t *testing.T) {
	_, out := runVax(t, `
func main() {
	var x;
	x = 2 + 3 * 4;
	print(x);
	print(x % 5);
	print(-x);
	print(x << 2);
	if (x > 10) { putc('y'); } else { putc('n'); }
	putc('\n');
}`)
	if out != "14\n4\n-14\n56\ny\n" {
		t.Fatalf("output %q", out)
	}
}

func TestVaxBackendMatchesMIPSXOnSuite(t *testing.T) {
	// Every non-FP benchmark must produce identical output on both
	// architectures — the precondition for the paper's E7 comparison.
	for _, b := range Benchmarks() {
		if b.Class == "fp" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, out := runVax(t, b.Source)
			if want := b.Expect(); out != want {
				t.Fatalf("vax output %q, want %q", out, want)
			}
		})
	}
}

// TestBackendsAgree: a program both backends build prints the same on
// both machines, at the scope and overflow boundaries too. Every local is
// assigned before it is read; an unassigned local's value is unspecified.
func TestBackendsAgree(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		// A local is visible throughout its function, before its
		// declaration too, and hides a global of its name there.
		{`func main() { x = 3; var x; print(x); }`, "3\n"},
		{`var x; func main() { x = 3; var x; print(x); }`, "3\n"},
		{`func main() { if (1) { var y; y = 4; } y = y + 1; print(y); }`, "5\n"},
		{`var p; func f(p) { return p + 1; } func main() { p = 10; print(f(1) + p); }`, "12\n"},
		// An index base is always the global; functions and variables
		// have separate names.
		{`var a[4]; func main() { var a; a = 7; a[1] = 5; print(a + a[1]); }`, "12\n"},
		{`var f; func f() { return 4; } func main() { f = 1; print(f() + f); }`, "5\n"},
		// Compares whose difference overflows a word; literals are words.
		{`func main() {
			var big; big = 524288 * 4096;
			if ((524288 * 4096) < (40 * 55)) { print(1); } else { print(0); }
			print(big < 2200);
			print(2200 > big);
			print(4294967295);
		}`, "1\n1\n1\n-1\n"},
		// A zero divisor: quotient 0, remainder the dividend.
		{`func main() { var z; var m; z = 0; m = 0 - 7; print(7 / z); print(7 % z); print(m % z); }`, "0\n7\n-7\n"},
	} {
		if got := runTiny(t, c.src, reorg.Default()); got != c.want {
			t.Errorf("MIPS-X printed %q, want %q\n%s", got, c.want, c.src)
		}
		if _, got := runVax(t, c.src); got != c.want {
			t.Errorf("CISC printed %q, want %q\n%s", got, c.want, c.src)
		}
	}
}

func TestVaxUsesMemoryOperands(t *testing.T) {
	// The CISC backend must fold variable accesses into operands rather
	// than loading into registers first: "x = x + y" should be ≤3
	// instructions of straight-line code, not 4+.
	code, err := GenerateVAX(`
var x; var y;
func main() { x = x + y; }`)
	if err != nil {
		t.Fatal(err)
	}
	memOps := 0
	for _, in := range code {
		for _, o := range []vaxlike.Operand{in.Src, in.Dst} {
			if o.Mode == vaxlike.ModeAbs || o.Mode == vaxlike.ModeDisp || o.Mode == vaxlike.ModeIdx {
				memOps++
			}
		}
	}
	if memOps < 2 {
		t.Fatalf("only %d memory operands; backend is not exploiting CISC addressing", memOps)
	}
}

func TestVaxConditionCodeStats(t *testing.T) {
	m, _ := runVax(t, `
func main() {
	var i;
	i = 0;
	while (i < 100) { i = i + 1; }
	print(i);
}`)
	st := m.Stats
	if st.Branches == 0 {
		t.Fatal("no branches executed")
	}
	// The loop condition needs an explicit CMP each iteration — the
	// condition-code machine's overhead the MIPS-X team measured.
	if st.CCFromCmp == 0 {
		t.Fatal("expected explicit compares before branches")
	}
}

func TestVaxPathLengthShorterThanRISC(t *testing.T) {
	// The CISC machine executes fewer instructions, the RISC finishes in
	// less wall-clock time: the paper's headline comparison shape.
	src := Benchmarks()[0].Source // bubblesort
	m, _ := runVax(t, src)
	if m.Stats.Instructions == 0 || m.Stats.CPI() < 3 {
		t.Fatalf("vax CPI %.2f implausibly low", m.Stats.CPI())
	}
}

func TestVaxRejectsFPBuiltins(t *testing.T) {
	if _, err := GenerateVAX(`func main() { print(ftoi(itof(1))); }`); err == nil {
		t.Fatal("FP builtins should be rejected by the CISC backend")
	}
}
