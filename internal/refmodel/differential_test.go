package refmodel

// Differential testing: the pipelined simulator (with both cache levels in
// the loop) must be architecturally indistinguishable from the sequential
// golden model on every hazard-free program — random programs with
// branches, squash bits, loads, stores and jumps, plus the entire compiled
// benchmark suite.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// genProgram emits a random hazard-free instruction sequence:
//
//   - computes over r1..r15 (bypassing makes any compute spacing legal);
//   - stores to a scratch region and loads with the positional rule that
//     the next instruction never reads the loaded register (the one load
//     delay slot);
//   - forward branches with random conditions and squash bits, whose two
//     delay slots are always plain computes (cooldown ≥ 3 after a branch).
const scratchBase = 2000
const scratchSize = 32

func genProgram(rng *rand.Rand, n int) []isa.Instruction {
	var prog []isa.Instruction
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(15)) }
	lastLoad := isa.Reg(0)
	cooldown := 0

	emit := func(in isa.Instruction) {
		prog = append(prog, in)
		if cooldown > 0 {
			cooldown--
		}
	}
	// avoidSrc picks a source register that is not the just-loaded one.
	avoidSrc := func() isa.Reg {
		for {
			r := reg()
			if r != lastLoad {
				return r
			}
		}
	}

	for len(prog) < n {
		switch k := rng.Intn(10); {
		case k < 5: // compute
			ops := []isa.CompOp{isa.CompAddu, isa.CompSubu, isa.CompAnd, isa.CompOr,
				isa.CompXor, isa.CompSetLt, isa.CompSetGt, isa.CompSetEq}
			emit(isa.Instruction{Class: isa.ClassCompute, Comp: ops[rng.Intn(len(ops))],
				Rd: reg(), Rs1: avoidSrc(), Rs2: avoidSrc()})
			lastLoad = 0
		case k < 7: // immediate
			emit(isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddiu,
				Rd: reg(), Rs1: avoidSrc(), Off: int32(rng.Intn(2000) - 1000)})
			lastLoad = 0
		case k == 7: // store to scratch
			emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemSt,
				Rd: avoidSrc(), Off: int32(scratchBase + rng.Intn(scratchSize))})
			lastLoad = 0
		case k == 8: // load from scratch
			rd := reg()
			emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemLd,
				Rd: rd, Off: int32(scratchBase + rng.Intn(scratchSize))})
			lastLoad = rd
		default: // forward branch with two compute slots
			if cooldown > 0 || len(prog)+6 > n {
				emit(isa.Nop())
				lastLoad = 0
				continue
			}
			disp := int32(3 + rng.Intn(3)) // skip 0..2 instructions after the slots
			emit(isa.Instruction{Class: isa.ClassBranch,
				Cond:   isa.Cond(rng.Intn(6)),
				Squash: rng.Intn(2) == 1,
				Rs1:    avoidSrc(), Rs2: avoidSrc(), Off: disp})
			lastLoad = 0
			// Two slots: plain computes (never loads, never branches).
			for s := 0; s < 2; s++ {
				emit(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompAddu,
					Rd: reg(), Rs1: avoidSrc(), Rs2: avoidSrc()})
			}
			cooldown = 3 // the skippable region must not hold a branch
		}
	}
	// Print a few registers, then halt. The padding no-op respects the load
	// delay of a trailing load.
	prog = append(prog, isa.Nop())
	for r := isa.Reg(1); r <= 5; r++ {
		prog = append(prog, isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc,
			Rd: r, Off: isa.CoprocOff(7, 0)})
	}
	prog = append(prog, isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw,
		Off: isa.CoprocOff(7, 0x3FFF)})
	return prog
}

func encode(prog []isa.Instruction) []isa.Word {
	out := make([]isa.Word, len(prog))
	for i, in := range prog {
		out[i] = in.Encode()
	}
	return out
}

func TestRandomProgramsMatchGoldenModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		prog := genProgram(rng, 40+rng.Intn(160))
		words := encode(prog)

		// Golden model.
		ref := New(2, 0, words)
		if err := ref.Run(100_000); err != nil {
			t.Fatalf("trial %d: refmodel: %v", trial, err)
		}

		// Full pipelined system (both caches in the datapath).
		cfg := core.DefaultConfig()
		cfg.Pipeline.CheckHazards = true
		m := core.New(cfg, nil)
		im := &asm.Image{Base: 0, Words: words, Symbols: map[string]isa.Word{},
			IsInstr: make([]bool, len(words)), Lines: make([]int, len(words))}
		m.Load(im)
		if _, err := m.Run(10_000_000); err != nil {
			t.Fatalf("trial %d: pipeline: %v", trial, err)
		}
		for _, v := range m.CPU.Violations {
			t.Fatalf("trial %d: generator emitted hazardous code: %v", trial, v)
		}

		// Architectural state must agree: registers, scratch memory, output.
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := m.CPU.Reg(r), ref.reg(r); got != want {
				t.Fatalf("trial %d: r%d = %#x, golden model says %#x\n%s",
					trial, r, got, want, dump(prog))
			}
		}
		for a := isa.Word(scratchBase); a < scratchBase+scratchSize; a++ {
			if got, want := m.Mem.Peek(a), ref.Mem[a]; got != want {
				t.Fatalf("trial %d: mem[%d] = %#x, golden model says %#x\n%s",
					trial, a, got, want, dump(prog))
			}
		}
		if got, want := m.Output(), ref.Out.String(); got != want {
			t.Fatalf("trial %d: output %q, golden model says %q\n%s", trial, got, want, dump(prog))
		}
	}
}

func dump(prog []isa.Instruction) string {
	s := ""
	for i, in := range prog {
		s += fmt.Sprintf("%3d: %v\n", i, in)
	}
	return s
}

func TestOneSlotRandomProgramsMatchGoldenModel(t *testing.T) {
	// The quick-compare variant resolves branches in RF: the generator's
	// branch sources must be produced at distance ≥ 2, so restrict branch
	// operands to registers untouched in the last two instructions.
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 100; trial++ {
		var prog []isa.Instruction
		n := 30 + rng.Intn(80)
		var recent [2]isa.Reg
		note := func(r isa.Reg) { recent[0], recent[1] = recent[1], r }
		reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(15)) }
		cooldown := 0
		for len(prog) < n {
			if rng.Intn(6) == 0 && cooldown == 0 && len(prog)+4 <= n {
				// Branch whose sources avoid the last two destinations.
				src := func() isa.Reg {
					for {
						r := reg()
						if r != recent[0] && r != recent[1] {
							return r
						}
					}
				}
				prog = append(prog, isa.Instruction{Class: isa.ClassBranch,
					Cond: isa.Cond(rng.Intn(6)), Squash: rng.Intn(2) == 1,
					Rs1: src(), Rs2: src(), Off: int32(2 + rng.Intn(3))})
				note(0)
				prog = append(prog, isa.Instruction{Class: isa.ClassCompute,
					Comp: isa.CompAddu, Rd: reg(), Rs1: reg(), Rs2: reg()})
				note(prog[len(prog)-1].Rd)
				cooldown = 3
				continue
			}
			in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompXor,
				Rd: reg(), Rs1: reg(), Rs2: reg()}
			prog = append(prog, in)
			note(in.Rd)
			if cooldown > 0 {
				cooldown--
			}
		}
		prog = append(prog, isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw,
			Off: isa.CoprocOff(7, 0x3FFF)})
		words := encode(prog)

		ref := New(1, 0, words)
		if err := ref.Run(100_000); err != nil {
			t.Fatalf("trial %d: refmodel: %v", trial, err)
		}
		cfg := core.DefaultConfig()
		cfg.Pipeline.BranchSlots = 1
		cfg.Pipeline.CheckHazards = true
		m := core.New(cfg, nil)
		m.Load(&asm.Image{Base: 0, Words: words, Symbols: map[string]isa.Word{},
			IsInstr: make([]bool, len(words)), Lines: make([]int, len(words))})
		if _, err := m.Run(10_000_000); err != nil {
			t.Fatalf("trial %d: pipeline: %v", trial, err)
		}
		for _, v := range m.CPU.Violations {
			t.Fatalf("trial %d: hazardous: %v\n%s", trial, v, dump(prog))
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := m.CPU.Reg(r), ref.reg(r); got != want {
				t.Fatalf("trial %d: r%d = %#x, want %#x\n%s", trial, r, got, want, dump(prog))
			}
		}
	}
}

func TestCompiledSuiteMatchesGoldenModel(t *testing.T) {
	// The reorganized output of the entire benchmark suite must run
	// identically on the golden model — end-to-end validation of compiler,
	// reorganizer, assembler and pipeline at once.
	for _, b := range tinyc.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			im, err := tinyc.Build(b.Source, reorg.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := New(2, im.Base, im.Words)
			ref.PC = im.Symbols["main"]
			if err := ref.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			if got, want := ref.Out.String(), b.Expect(); got != want {
				t.Fatalf("golden model output %q, want %q", got, want)
			}
			m := core.New(core.DefaultConfig(), nil)
			m.Load(im)
			if _, err := m.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			if m.Output() != ref.Out.String() {
				t.Fatalf("pipeline %q vs golden %q", m.Output(), ref.Out.String())
			}
		})
	}
}

// TestSelfModifyingStoreMatchesGoldenModel: programs whose fetched words
// change under the pipeline's feet, run under both branch-slot counts. The
// pipeline fetches through the Icache and its decode memo, so a fetch that
// served a stale word, or a stale decode, would diverge from the golden
// model, which decodes memory directly.
func TestSelfModifyingStoreMatchesGoldenModel(t *testing.T) {
	cases := []struct {
		name, src, want string
		// apart, when set, names two labels whose PCs must be exactly
		// memoSpan apart.
		apart [2]string
	}{{
		// A store rewrites an instruction inside the running loop itself:
		// one pass through the original instruction, five through the patch.
		name: "patch",
		src: `
	main:	la   r1, patch
		la   r2, alt
		ld   r3, 0(r2)
		addi r4, r0, 6
	loop:
	patch:	addi r5, r5, 1        ; overwritten by the alt instruction
		addi r4, r4, -1
		st   r3, 0(r1)
		bne  r4, r0, loop
		nop
		nop
		putw r5
		halt
	alt:	addi r5, r5, 7
		halt
	`,
		want: "36\n",
	}, {
		// Two PCs one decode-memo size apart share a memo entry and hold
		// different instructions, so every iteration re-decodes both; the
		// store then rewrites one of them.
		name: "memo-collision",
		src: `
	main:	la   r1, near
		la   r2, alt
		ld   r3, 0(r2)
		addi r4, r0, 6
		nop
	loop:
	near:	addi r5, r5, 1        ; overwritten by the alt instruction
		addi r4, r4, -1
		st   r3, 0(r1)
		jspci r0, far(r0)
		nop
		nop
		.space 1018
	far:	addi r6, r6, 100      ; same memo entry as near
		nop
		bne  r4, r0, loop
		nop
		nop
		putw r5
		putw r6
		halt
	alt:	addi r5, r5, 7
		halt
	`,
		want:  "36\n600\n",
		apart: [2]string{"near", "far"},
	}}
	// memoSpan is the pipeline's decode-memo entry count: PCs this far apart
	// map to one entry.
	const memoSpan = 1024
	for _, tc := range cases {
		im, err := asm.AssembleSource(tc.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a := tc.apart; a[0] != "" {
			if d := im.Symbols[a[1]] - im.Symbols[a[0]]; d != memoSpan {
				t.Fatalf("%s: %s is %d words past %s, want %d", tc.name, a[1], d, a[0], memoSpan)
			}
		}
		for _, slots := range []int{2, 1} {
			t.Run(fmt.Sprintf("%s/slots=%d", tc.name, slots), func(t *testing.T) {
				if rep := lint.CheckImage(im, lint.Config{Slots: slots}); rep.HasErrors() {
					t.Fatalf("program has interlock hazards:\n%s", rep)
				}
				ref := New(slots, im.Base, im.Words)
				if err := ref.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.Pipeline.BranchSlots = slots
				m := core.New(cfg, nil)
				m.Load(im)
				if _, err := m.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				if got := ref.Out.String(); got != tc.want {
					t.Fatalf("golden model printed %q, want %q", got, tc.want)
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
	}
}
