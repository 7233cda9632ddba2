package tinyc

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/lint"
	"repro/internal/reorg"
)

// Compiled is the result of compiling a tinyc program: naive assembly text
// and its parsed symbolic statements, ready for the reorganizer.
type Compiled struct {
	Asm   string
	Stmts []asm.Stmt
}

// Compile translates tinyc source into naive (unscheduled) assembly with
// the default memory layout.
func Compile(src string) (*Compiled, error) {
	return CompileLayout(src, DefaultLayout())
}

// CompileLayout compiles with explicit heap/stack placement — used when
// several programs share one memory (internal/scenario).
func CompileLayout(src string, layout Layout) (*Compiled, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	text, err := generate(prog, layout)
	if err != nil {
		return nil, err
	}
	stmts, err := asm.Parse(text)
	if err != nil {
		// A bug in the generator, not in the user program.
		return nil, err
	}
	return &Compiled{Asm: text, Stmts: stmts}, nil
}

// Build compiles, reorganizes for the scheme, and assembles at address 0.
func Build(src string, scheme reorg.Scheme, prof reorg.Profile) (*asm.Image, error) {
	return BuildLayout(src, scheme, prof, DefaultLayout(), 0)
}

// BuildLayout is Build with explicit runtime-region placement and load
// address, for multiprocessor images that must not collide.
func BuildLayout(src string, scheme reorg.Scheme, prof reorg.Profile, layout Layout, base uint32) (*asm.Image, error) {
	c, err := CompileLayout(src, layout)
	if err != nil {
		return nil, err
	}
	out := reorg.Reorganize(c.Stmts, scheme, prof)
	im, err := asm.Assemble(out, base)
	if err != nil {
		return nil, err
	}
	// Post-pass verification: on a machine with no hardware interlocks a
	// scheduling bug is silent data corruption, so every generated image is
	// run through the static hazard linter before anyone executes it.
	if rep := lint.CheckImage(im, lint.Config{Slots: scheme.Slots}); rep.HasErrors() {
		return nil, fmt.Errorf("tinyc: generated code failed hazard lint (compiler bug):\n%s",
			reportErrors(rep))
	}
	return im, nil
}

func reportErrors(rep *lint.Report) string {
	var b []byte
	for _, d := range rep.Errors() {
		b = append(b, '\t')
		b = append(b, d.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

// StaticInstructions counts the instruction words in an image — the static
// code size metric of the paper's VAX comparison.
func StaticInstructions(im *asm.Image) int {
	n := 0
	for _, isIn := range im.IsInstr {
		if isIn {
			n++
		}
	}
	return n
}
