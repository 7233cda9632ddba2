package refmodel

// Coverage-guided forms of the golden-model differential, both through
// checkImage (differential_test.go). FuzzRawVsRefmodel decodes bytes into a
// raw program and runs it under each slot count lint passes it for.
// FuzzPipelineVsRefmodel decodes bytes into an always-terminating tinyc
// program and builds it for a fuzzer-chosen Table 1 scheme; the build lints
// its output, so a build failure is a compiler or scheduler bug, and the
// golden model must halt on every such program. CI runs
// both for a smoke interval on every merge (see .github/workflows/ci.yml);
// `make fuzz` runs them longer.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// fuzzGen drains the payload one decision at a time; exhaustion yields
// zeros, which map to the grammar's simplest productions.
type fuzzGen struct {
	data []byte
	pos  int
}

func (g *fuzzGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

// fuzzExpr builds an expression over the scalar variables, small and large
// constants (the large ones make the arithmetic overflow-prone) and
// constant-indexed array reads. The only % ever emitted has a nonzero
// constant divisor, so no production can fault at compile or run time.
func fuzzExpr(g *fuzzGen, depth int) string {
	vars := []string{"x", "y", "g0", "g1"}
	if depth <= 0 || g.next()%3 == 0 {
		switch g.next() % 4 {
		case 0:
			return vars[g.next()%len(vars)]
		case 1:
			return fmt.Sprint(g.next() % 64)
		case 2:
			return fmt.Sprint(1 << (g.next() % 28))
		default:
			return fmt.Sprintf("a[%d]", g.next()%16)
		}
	}
	l, r := fuzzExpr(g, depth-1), fuzzExpr(g, depth-1)
	switch g.next() % 4 {
	case 0:
		return "(" + l + " + " + r + ")"
	case 1:
		return "(" + l + " - " + r + ")"
	case 2:
		return "(" + l + " * " + r + ")"
	default:
		return fmt.Sprintf("(%s %% %d)", l, 1+g.next()%16)
	}
}

// fuzzStmts builds a statement list. Loops use the reserved counters i0/i1
// (never assignment targets), nest at most two deep and run at most 8
// iterations each, so every generated program halts after a bounded, small
// instruction count.
func fuzzStmts(g *fuzzGen, n, loopDepth int) string {
	targets := []string{"x", "y", "g0", "g1"}
	var b strings.Builder
	for s := 0; s < n; s++ {
		switch g.next() % 6 {
		case 0, 1:
			fmt.Fprintf(&b, "\t%s = %s;\n", targets[g.next()%len(targets)], fuzzExpr(g, 2))
		case 2:
			fmt.Fprintf(&b, "\ta[(%s) %% 16] = %s;\n", fuzzExpr(g, 1), fuzzExpr(g, 2))
		case 3:
			fmt.Fprintf(&b, "\tif (%s < %s) {\n%s\t} else {\n%s\t}\n",
				fuzzExpr(g, 1), fuzzExpr(g, 1), fuzzStmts(g, 1+g.next()%2, loopDepth), fuzzStmts(g, 1, loopDepth))
		case 4:
			if loopDepth < 2 {
				ctr := fmt.Sprintf("i%d", loopDepth)
				fmt.Fprintf(&b, "\t%s = 0;\n\twhile (%s < %d) {\n%s\t%s = %s + 1;\n\t}\n",
					ctr, ctr, 1+g.next()%8, fuzzStmts(g, 1+g.next()%2, loopDepth+1), ctr, ctr)
				continue
			}
			fallthrough
		default:
			fmt.Fprintf(&b, "\t%s = helper(%s);\n", targets[g.next()%len(targets)], fuzzExpr(g, 1))
		}
	}
	return b.String()
}

func fuzzProgram(data []byte) string {
	g := &fuzzGen{data: data}
	return fmt.Sprintf(`
var g0; var g1;
var a[16];
func helper(p) {
	var h;
	h = p * 3 + g0;
	if (h < 0) { h = 0 - h; }
	return h %% 1024;
}
func main() {
	var x; var y; var i0; var i1;
	x = 1; y = 2; g0 = 3; g1 = 4; i0 = 0; i1 = 0;
%s	print(x + y + g0 + g1);
}
`, fuzzStmts(g, 2+g.next()%6, 0))
}

// fuzzBudget bounds the golden model of a tinyc program in instructions;
// generated programs halt far inside it.
const fuzzBudget = 20_000_000

func FuzzPipelineVsRefmodel(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0))
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8}, byte(1), byte(1))
	f.Add([]byte{4, 4, 0, 4, 1, 4, 2, 9, 9, 9, 9, 9}, byte(2), byte(2)) // nested loops
	f.Add([]byte{3, 3, 7, 7, 7, 3, 1, 1, 1, 1}, byte(3), byte(3))       // branches
	f.Add([]byte{1, 1, 1, 2, 2, 2, 0, 0}, byte(4), byte(7))             // tiny icache
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8}, byte(1), byte(0))
	f.Add([]byte{3, 4, 0, 4, 1, 4, 2, 9, 9, 9, 9, 9, 9, 9, 9}, byte(2), byte(0)) // nested loops
	f.Add([]byte{2, 3, 7, 7, 7, 3, 1, 1, 1, 1, 1, 1}, byte(3), byte(0))          // branches
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, byte(4), byte(0))                // call-heavy
	f.Add([]byte{0, 2, 2, 2, 6, 6, 6, 6, 6, 6, 6}, byte(5), byte(0))             // array-heavy
	f.Fuzz(func(t *testing.T, data []byte, schemeByte, cfgByte byte) {
		schemes := reorg.Table1Schemes()
		scheme := schemes[int(schemeByte)%len(schemes)]
		src := fuzzProgram(data)
		im, err := tinyc.Build(src, scheme, nil)
		if err != nil {
			t.Fatalf("scheme %s: %v\nprogram:\n%s", scheme, err, src)
		}
		if _, err := checkImage(t, im, scheme.Slots, cfgByte&1 != 0, fuzzBudget); err != nil {
			t.Fatalf("golden model on a generated program: %v\nprogram:\n%s", err, src)
		}
	})
}

func FuzzRawVsRefmodel(f *testing.F) {
	for _, s := range rawBoundarySeeds {
		f.Add(s.near, byte(0))
		f.Add(s.close, byte(1))
	}
	f.Add([]byte{9, 3, 2, 1, 1, 0, 4, 2, 7, 5, 9, 1, 2, 0, 2, 0, 1, 8, 3, 0, 0}, byte(1)) // nested loops
	f.Add([]byte{7, 1, 4, 1, 0, 1, 2, 1, 5, 2, 1, 3, 3, 2, 1, 8, 2, 0, 2, 6, 1, 9}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, cfgByte byte) {
		for _, slots := range []int{2, 1} {
			runRaw(t, data, slots, cfgByte&1 != 0)
		}
	})
}
