package tinyc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/reorg"
)

// runTiny builds src for the scheme and runs it on the full machine with
// hazard checking; returns output.
func runTiny(t *testing.T, src string, scheme reorg.Scheme) string {
	t.Helper()
	im, err := Build(src, scheme, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := core.New(core.DefaultConfig().WithScheme(scheme), nil)
	m.CPU.Cfg.CheckHazards = true
	m.Load(im)
	if _, err := m.Run(20_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range m.CPU.Violations {
		t.Errorf("interlock violation in compiled code: %v", v)
	}
	return m.Output()
}

func TestHelloArithmetic(t *testing.T) {
	out := runTiny(t, `
func main() {
	var x;
	x = 2 + 3 * 4;
	print(x);
	print(x - 20);
	print(100 / 7);
	print(100 % 7);
	print(-x);
	print(1 << 10);
	print(1024 >> 3);
	print(-64 >> 2);
}`, reorg.Default())
	want := "14\n-6\n14\n2\n-14\n1024\n128\n-16\n"
	if out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	out := runTiny(t, `
func main() {
	print(3 < 4);
	print(4 < 3);
	print(3 <= 3);
	print(3 >= 4);
	print(5 == 5);
	print(5 != 5);
	print(1 && 2);
	print(1 && 0);
	print(0 || 7);
	print(0 || 0);
	print(!0);
	print(!9);
}`, reorg.Default())
	want := "1\n0\n1\n0\n1\n0\n1\n0\n1\n0\n1\n0\n"
	if out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

func TestControlFlow(t *testing.T) {
	out := runTiny(t, `
func main() {
	var i; var s;
	s = 0;
	i = 0;
	while (i < 10) {
		if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
		i = i + 1;
	}
	print(s);
	if (s > 0) { putc('y'); } else { putc('n'); }
	putc('\n');
}`, reorg.Default())
	if out != "15\ny\n" {
		t.Fatalf("output %q", out)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	out := runTiny(t, `
func gcd(a, b) {
	if (b == 0) { return a; }
	return gcd(b, a % b);
}
func square(x) { return x * x; }
func main() {
	print(gcd(252, 105));
	print(square(13));
	print(square(square(3)));
}`, reorg.Default())
	if out != "21\n169\n81\n" {
		t.Fatalf("output %q", out)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	out := runTiny(t, `
var g;
var a[10];
func bump() { g = g + 1; return g; }
func main() {
	var i;
	i = 0;
	while (i < 10) { a[i] = i * i; i = i + 1; }
	print(a[7]);
	bump(); bump(); bump();
	print(g);
	a[g] = 99;
	print(a[3]);
}`, reorg.Default())
	if out != "49\n3\n99\n" {
		t.Fatalf("output %q", out)
	}
}

func TestLispBuiltins(t *testing.T) {
	out := runTiny(t, `
func main() {
	var l;
	l = cons(1, cons(2, cons(3, 0)));
	print(car(l));
	print(car(cdr(l)));
	print(car(cdr(cdr(l))));
	print(cdr(cdr(cdr(l))));
	setcar(l, 42);
	print(car(l));
	setcdr(cdr(cdr(l)), cons(4, 0));
	print(car(cdr(cdr(cdr(l)))));
}`, reorg.Default())
	if out != "1\n2\n3\n0\n42\n4\n" {
		t.Fatalf("output %q", out)
	}
}

func TestFPBuiltins(t *testing.T) {
	out := runTiny(t, `
func main() {
	var a; var b;
	a = itof(7);
	b = itof(2);
	print(ftoi(fadd(a, b)));
	print(ftoi(fsub(a, b)));
	print(ftoi(fmul(a, b)));
	print(ftoi(fdiv(a, b)));
	print(flt(b, a));
	print(flt(a, b));
	print(feq(a, a));
}`, reorg.Default())
	if out != "9\n5\n14\n3\n1\n0\n1\n" {
		t.Fatalf("output %q", out)
	}
}

func TestBenchmarkSuiteAllSchemes(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := b.Expect()
			for _, scheme := range []reorg.Scheme{reorg.Default(), {Slots: 2, Squash: reorg.NoSquash}, {Slots: 1, Squash: reorg.SquashOptional}} {
				got := runTiny(t, b.Source, scheme)
				if got != want {
					t.Fatalf("scheme %v: output %q, want %q", scheme, got, want)
				}
			}
		})
	}
}

// TestCompileErrors: both backends reject each program with the same
// error, the checker's or the parser's.
func TestCompileErrors(t *testing.T) {
	cases := []string{
		`func main() { x = 1; }`,                        // undefined var
		`func main() { print(f()); }`,                   // undefined func
		`func f(a,b,c,d,e) { } func main() { }`,         // too many params
		`func main() { var x; x = 1 << x; }`,            // variable shift
		`var a; var a; func main() { }`,                 // duplicate global
		`func f() {} func f() {} func main() {}`,        // duplicate func
		`func cons() {} func main() {}`,                 // builtin collision
		`func f() {}`,                                   // no main
		`func main() { var y; y = a[0]; }`,              // index non-array
		`func main() { 3 = 4; }`,                        // bad lvalue
		`func main() { print(1 + ); }`,                  // syntax
		`func f(a, a) { } func main() { }`,              // duplicate parameter
		`func main() { var x; if (1) { var x; } }`,      // duplicate local
		`func main() { var x; x = 1; print(x << 40); }`, // shift out of range
		`func main() { print(4294967296); }`,            // literal wider than a word
	}
	for _, src := range cases {
		_, err := Compile(src)
		_, vaxErr := GenerateVAX(src)
		if err == nil || vaxErr == nil || err.Error() != vaxErr.Error() {
			t.Errorf("%q: MIPS-X error %v, CISC error %v; want one error from both", src, err, vaxErr)
		}
	}
}

func TestNaiveOutputIsActuallyNaive(t *testing.T) {
	// The compiler must not emit nops or fill slots itself — that is the
	// reorganizer's job.
	c, err := Compile(`func main() { var x; x = 1; print(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.Asm, "nop") {
		t.Error("compiler emitted nops")
	}
}

func TestStaticInstructionsMetric(t *testing.T) {
	im, err := Build(`func main() { print(1); }`, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := StaticInstructions(im)
	if n < 10 || n > 100 {
		t.Fatalf("static size %d out of plausible range", n)
	}
}

func TestDeepExpressionRejected(t *testing.T) {
	// Build an expression needing more than 8 live temporaries.
	e := "1"
	for i := 0; i < 10; i++ {
		e = "(" + e + " + (2 - (3"
	}
	for i := 0; i < 10; i++ {
		e = e + ")))"
	}
	src := "func main() { print(" + e + "); }"
	if _, err := Compile(src); err == nil {
		t.Skip("expression folded shallower than expected") // acceptable
	}
}

// TestBenchmarkByName: every suite name resolves to its benchmark, and any
// other name is an error that lists the suite.
func TestBenchmarkByName(t *testing.T) {
	for _, want := range Benchmarks() {
		b, err := BenchmarkByName(want.Name)
		if err != nil || b.Name != want.Name || b.Source != want.Source {
			t.Fatalf("%s: got %q, err %v", want.Name, b.Name, err)
		}
	}
	_, err := BenchmarkByName("nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "bubblesort, ") {
		t.Fatalf("unknown name: err = %v, want one listing the suite", err)
	}
}
