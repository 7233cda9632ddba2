package asm

import (
	"os"
	"testing"
)

// FuzzAssemble drives arbitrary source and a base through Parse and
// Assemble. No input may panic; an accepted image holds exactly its
// statements' summed size, stays within MaxImageWords and does not wrap
// past the top of the 32-bit address space, and Listing renders it (images
// above 1<<16 words skip the listing, which only repeats per word what a
// small one exercises). The seeds are the traced program, E5's and E8's
// kernels (testdata/fuzz) and the layouts TestImageBounds refuses.
func FuzzAssemble(f *testing.F) {
	prog, err := os.ReadFile("../core/testdata/trace_program.s")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(prog), uint32(0))
	for _, tc := range boundsCases {
		f.Add(tc.src, tc.base)
	}
	f.Fuzz(func(t *testing.T, src string, base uint32) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		im, err := Assemble(stmts, base)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("Assemble error %v is a %T, not an *Error", err, err)
			}
			return
		}
		size := 0
		for _, s := range stmts {
			size += s.Size()
		}
		if len(im.Words) != size || len(im.IsInstr) != size || len(im.Lines) != size {
			t.Fatalf("image holds %d words, %d flags, %d lines; its statements sum to %d",
				len(im.Words), len(im.IsInstr), len(im.Lines), size)
		}
		if size > MaxImageWords || uint64(base)+uint64(size) > 1<<32 {
			t.Fatalf("accepted %d words at base %#x", size, base)
		}
		if size <= 1<<16 {
			Listing(im)
		}
	})
}
