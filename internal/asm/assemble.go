package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// MaxImageWords caps an assembled image: far above every program in the
// repository and tinyc's largest array (1<<20 words), and small enough that
// a hostile .space cannot exhaust memory.
const MaxImageWords = 1 << 22

// Assemble lays out the statements contiguously starting at base, resolves
// symbolic targets, and returns the memory image. An image above
// MaxImageWords, or one that would wrap past the top of the 32-bit word
// address space, is an error before anything is allocated for it.
func Assemble(stmts []Stmt, base isa.Word) (*Image, error) {
	// Pass 1: assign addresses and collect symbols.
	syms := make(map[string]isa.Word)
	addr := base
	addrs := make([]isa.Word, len(stmts))
	var size uint64
	for i, s := range stmts {
		if s.Space < 0 || s.Space > MaxImageWords {
			return nil, errf(s.Line, ".space %d is outside 0..%d words", s.Space, MaxImageWords)
		}
		if size += uint64(s.Size()); size > MaxImageWords {
			return nil, errf(s.Line, "image exceeds %d words", MaxImageWords)
		}
		if uint64(base)+size > 1<<32 {
			return nil, errf(s.Line, "image at base %#x wraps past the top of the 32-bit address space", base)
		}
		addrs[i] = addr
		for _, l := range s.Labels {
			if _, dup := syms[l]; dup {
				return nil, errf(s.Line, "duplicate label %q", l)
			}
			syms[l] = addr
		}
		addr += isa.Word(s.Size())
	}

	// Pass 2: resolve and emit.
	im := &Image{
		Base:    base,
		Words:   make([]isa.Word, 0, addr-base),
		IsInstr: make([]bool, 0, addr-base),
		Symbols: syms,
		Lines:   make([]int, 0, addr-base),
	}
	for i, s := range stmts {
		if s.IsInstr {
			in := s.In
			if s.Target != "" {
				tgt, ok := syms[s.Target]
				if !ok {
					return nil, errf(s.Line, "undefined label %q", s.Target)
				}
				switch s.TKind {
				case TargetRel:
					in.Off = int32(tgt) - int32(addrs[i])
					if in.Off < isa.DispMin || in.Off > isa.DispMax {
						return nil, errf(s.Line, "branch to %q out of range (%d words)", s.Target, in.Off)
					}
				case TargetAbs:
					in.Off = int32(tgt)
					if in.Off < isa.OffsetMin || in.Off > isa.OffsetMax {
						return nil, errf(s.Line, "address of %q does not fit a 17-bit field", s.Target)
					}
				default:
					return nil, errf(s.Line, "symbolic target %q without a target kind", s.Target)
				}
			}
			if err := in.Validate(); err != nil {
				return nil, errf(s.Line, "%v", err)
			}
			im.Words = append(im.Words, in.Encode())
			im.IsInstr = append(im.IsInstr, true)
			im.Lines = append(im.Lines, s.Line)
			continue
		}
		for _, w := range s.Words {
			im.Words = append(im.Words, w)
			im.IsInstr = append(im.IsInstr, false)
			im.Lines = append(im.Lines, s.Line)
		}
		for n := 0; n < s.Space; n++ {
			im.Words = append(im.Words, 0)
			im.IsInstr = append(im.IsInstr, false)
			im.Lines = append(im.Lines, s.Line)
		}
	}
	return im, nil
}

// AssembleSource parses and assembles in one step.
func AssembleSource(src string, base isa.Word) (*Image, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Assemble(stmts, base)
}

// Listing renders the image as address / word / disassembly lines, for
// debugging and the mipsx-asm tool.
func Listing(im *Image) string {
	var b strings.Builder
	// Invert symbols for annotation.
	names := make(map[isa.Word][]string)
	for n, a := range im.Symbols {
		names[a] = append(names[a], n)
	}
	for i, w := range im.Words {
		a := im.Base + isa.Word(i)
		for _, n := range names[a] {
			fmt.Fprintf(&b, "%s:\n", n)
		}
		if im.IsInstr[i] {
			fmt.Fprintf(&b, "  %06x  %08x  %s\n", a, w, isa.Decode(w))
		} else {
			fmt.Fprintf(&b, "  %06x  %08x  .word\n", a, w)
		}
	}
	return b.String()
}
