package lint_test

// Fuzz the whole code-generation path against the linter on tinyc source
// text itself, outside any generator's grammar: every input that compiles
// must reorganize, under each Table 1 scheme, into an image that lints
// with zero error-severity findings (tinyc.Build lints its output and
// fails on any error). On a machine with no hardware interlocks such an
// error would be silent data corruption at runtime. Both of tinyc's
// backends check the same language, so they accept or reject each input
// alike, unless one of them runs out of its machine's resources (eight
// expression registers; the CISC has no FPU). The grammar-driven
// tinyc generator, whose programs also run against the golden model, is
// internal/refmodel's FuzzPipelineVsRefmodel. `make fuzz` and CI's fuzz
// smoke run both targets; `go test` runs the seeds below, and
// `go test -fuzz=FuzzCompileReorgLint` explores.

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

func FuzzCompileReorgLint(f *testing.F) {
	f.Add("func main() { print(1); }")
	f.Add("var g0; func main() { var x; var y; x = 7; y = x * 3 - 2; g0 = (x + y) % 5; print(x + y + g0); }")
	f.Add("func main() { var i; var j; var s; while (i < 4) { j = 0; while (j < 3) { s = s + i * j; j = j + 1; } i = i + 1; } print(s); }") // nested loops
	f.Add("func main() { var x; x = 5; if (x < 3) { x = x + 1; } else { if (x < 9) { x = x * 2; } else { x = 0; } } print(x); }")           // branches
	f.Add("func sq(p) { return p * p; } func add(a, b) { return sq(a) + b; } func main() { print(add(sq(2), add(3, 4))); }")                // call-heavy
	f.Add("var a[16]; func main() { var i; while (i < 16) { a[i] = a[(i + 15) % 16] + i; i = i + 1; } print(a[3] + a[15]); }")              // array-heavy
	f.Fuzz(func(t *testing.T, src string) {
		c, err := tinyc.Compile(src)
		_, vaxErr := tinyc.GenerateVAX(src)
		if (err == nil) != (vaxErr == nil) && !backendLimit(err) && !backendLimit(vaxErr) {
			t.Fatalf("MIPS-X backend: %v; CISC backend: %v\nprogram:\n%s", err, vaxErr, src)
		}
		if err != nil {
			return // not a tinyc program, or past the MIPS-X backend's limits
		}
		// An image the assembler refuses, or one so large that the
		// reorganizer's no-ops could push it past the assembler's bound,
		// is beyond the build's limits before any scheduling.
		if im, err := asm.Assemble(c.Stmts, 0); err != nil || len(im.Words) > asm.MaxImageWords/2 {
			return
		}
		for _, scheme := range reorg.Table1Schemes() {
			if _, err := tinyc.Build(src, scheme, nil); err != nil {
				t.Fatalf("scheme %s: %v\nprogram:\n%s", scheme, err, src)
			}
		}
	})
}

// backendLimit reports whether err is one of the two errors a backend
// raises beyond the checker's: out of expression registers, or an FPU
// builtin on the CISC.
func backendLimit(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "expression too complex") ||
		strings.Contains(err.Error(), "does not model the FPU"))
}
