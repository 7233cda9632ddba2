package refmodel

// Coverage-guided form of the golden-model differential: a byte string
// decodes into a random but always-terminating tinyc program, compiled for
// a fuzzer-chosen Table 1 branch scheme and run on both the pipelined
// system and this model. Any disagreement in halting, console output or
// r1–r31 is a pipeline (or toolchain) bug. CI runs this for a smoke
// interval on every merge (see .github/workflows/ci.yml); `make fuzz` runs
// it longer.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
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

func fuzzExpr(g *fuzzGen, depth int) string {
	vars := []string{"x", "y", "g0"}
	if depth <= 0 || g.next()%3 == 0 {
		switch g.next() % 3 {
		case 0:
			return vars[g.next()%len(vars)]
		case 1:
			// Large constants make the arithmetic overflow-prone.
			return fmt.Sprint(1 << (g.next() % 28))
		default:
			return fmt.Sprintf("a[%d]", g.next()%8)
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

// fuzzStmts nests loops at most two deep with at most 8 iterations each, so
// every generated program halts after a bounded, small instruction count.
func fuzzStmts(g *fuzzGen, n, loopDepth int) string {
	targets := []string{"x", "y", "g0"}
	var b strings.Builder
	for s := 0; s < n; s++ {
		switch g.next() % 5 {
		case 0, 1:
			fmt.Fprintf(&b, "\t%s = %s;\n", targets[g.next()%len(targets)], fuzzExpr(g, 2))
		case 2:
			fmt.Fprintf(&b, "\ta[(%s) %% 8] = %s;\n", fuzzExpr(g, 1), fuzzExpr(g, 2))
		case 3:
			fmt.Fprintf(&b, "\tif (%s < %s) {\n%s\t}\n",
				fuzzExpr(g, 1), fuzzExpr(g, 1), fuzzStmts(g, 1, loopDepth))
		default:
			if loopDepth < 2 {
				ctr := fmt.Sprintf("i%d", loopDepth)
				fmt.Fprintf(&b, "\t%s = 0;\n\twhile (%s < %d) {\n%s\t%s = %s + 1;\n\t}\n",
					ctr, ctr, 1+g.next()%8, fuzzStmts(g, 1+g.next()%2, loopDepth+1), ctr, ctr)
			} else {
				fmt.Fprintf(&b, "\t%s = %s;\n", targets[g.next()%len(targets)], fuzzExpr(g, 1))
			}
		}
	}
	return b.String()
}

func fuzzProgram(data []byte) string {
	g := &fuzzGen{data: data}
	return fmt.Sprintf(`
var g0;
var a[8];
func main() {
	var x; var y; var i0; var i1;
	x = 1; y = 2; g0 = 3; i0 = 0; i1 = 0;
%s	print(x + y + g0);
}
`, fuzzStmts(g, 2+g.next()%5, 0))
}

// fuzzBudget bounds both sides: cycles on the pipeline, instructions on the
// golden model. Generated programs halt far inside it, so exhausting it on
// one side only means that side ran away.
const fuzzBudget = 20_000_000

func FuzzPipelineVsRefmodel(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0))
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8}, byte(1), byte(1))
	f.Add([]byte{4, 4, 0, 4, 1, 4, 2, 9, 9, 9, 9, 9}, byte(2), byte(2)) // nested loops
	f.Add([]byte{3, 3, 7, 7, 7, 3, 1, 1, 1, 1}, byte(3), byte(3))       // branches
	f.Add([]byte{1, 1, 1, 2, 2, 2, 0, 0}, byte(4), byte(7))             // tiny icache
	f.Fuzz(func(t *testing.T, data []byte, schemeByte, cfgByte byte) {
		schemes := reorg.Table1Schemes()
		scheme := schemes[int(schemeByte)%len(schemes)]
		im, err := tinyc.Build(fuzzProgram(data), scheme, nil)
		if err != nil {
			t.Skip() // generator bug, not a pipeline bug; the lint fuzz covers it
		}

		cfg := core.DefaultConfig()
		cfg.Pipeline.BranchSlots = scheme.Slots
		if cfgByte&1 != 0 {
			// A thrash-prone icache keeps miss service in the middle of
			// nearly every basic block.
			cfg.Icache.Sets = 2
			cfg.Icache.Ways = 1
			cfg.Icache.BlockWords = 4
			cfg.Icache.MissPenalty = 6
		}
		m := core.New(cfg, nil)
		m.Observe(obs.NewMachineSink())
		m.Load(im)
		_, errP := m.Run(fuzzBudget)
		if verr := m.VerifyAttribution(); verr != nil {
			t.Fatalf("attribution broken: %v", verr)
		}

		ref := New(scheme.Slots, im.Base, im.Words)
		ref.PC = im.Symbols["main"]
		errR := ref.Run(fuzzBudget)

		if (errP == nil) != (errR == nil) {
			t.Fatalf("halting diverged: pipeline err=%v, golden model err=%v", errP, errR)
		}
		if errP != nil {
			t.Skip() // both exhausted the budget
		}
		if got, want := m.Output(), ref.Out.String(); got != want {
			t.Fatalf("pipeline printed %q, golden model %q", got, want)
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if got, want := m.CPU.Reg(r), ref.reg(r); got != want {
				t.Errorf("r%d = %#x, golden model says %#x", r, got, want)
			}
		}
	})
}
