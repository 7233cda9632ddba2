package refmodel

// Differential testing: the pipelined simulator (with both cache levels in
// the loop) must be architecturally indistinguishable from the sequential
// golden model on every program the static hazard linter passes. Lint is
// the one definition of hazard-free. Two generators feed one check
// (checkImage): rawProgram decodes bytes into raw instruction sequences
// that know no hazard rule, so lint alone decides which of them run, and
// fuzzProgram (fuzz_test.go) emits tinyc that the reorganizer schedules.
// The compiled benchmark suite goes through the same check.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/coproc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// Raw programs load and store the scratch region, which the check compares
// word for word. It lies above every program the decoder emits: at most
// rawMaxInstrs instructions plus one last piece.
const (
	scratchBase  = 0x2000
	scratchSize  = 32
	rawMaxInstrs = 1024
	rawLoops     = 8 // loop counters r16..r23, one per loop
	rawBudget    = 100_000
	pipeBudget   = 20_000_000
)

// rawGen decodes a byte string into a raw MIPS-X program, one piece at a
// time; an exhausted string yields zeros. It knows no hazard rule: it puts
// 0–3 instructions between a producer and its consumer (ld, ldc, ALU
// results and movs feeding ALU ops, stores, console and FPU transfers and
// forward branches; mots md feeding movs md, mstep and dstep) and after
// every transfer, which straddles each distance lint checks, and lint
// decides which programs run. It emits only what the golden model gives a
// sequential meaning: no trap, jpc or jpcrs, no movs of the PC chain, no
// mots but to MD, and coprocessor traffic only to the FPU and the console.
// Loops count down a counter that nothing else writes and every other
// transfer goes forward, so a program halts (at its end, or early at a halt
// piece, which may sit in a delay slot) unless a squashed slot annuls a
// loop's decrement.
type rawGen struct {
	data   []byte
	pos    int
	prog   []isa.Instruction
	labels []int    // forward-transfer targets: piece starts and loop decrements
	fixes  [][2]int // {instruction, label} of each forward transfer
	loops  int
}

func rawProgram(data []byte) []isa.Instruction {
	g := &rawGen{data: data}
	for g.pos < len(g.data) && len(g.prog) < rawMaxInstrs {
		g.piece(0)
	}
	g.labels = append(g.labels, len(g.prog))
	g.emit(rawHalt)
	for _, f := range g.fixes {
		at, to := f[0], g.labels[min(f[1], len(g.labels)-1)]
		if g.prog[at].IsBranch() {
			g.prog[at].Off = int32(to - at)
		} else {
			g.prog[at].Off = int32(to) // jspci from r0: an absolute target
		}
	}
	return g.prog
}

var rawHalt = isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw, Off: isa.CoprocOff(asm.SysCoproc, asm.CmdHalt)}

func (g *rawGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func (g *rawGen) reg() isa.Reg            { return isa.Reg(1 + g.next()%15) }
func (g *rawGen) emit(in isa.Instruction) { g.prog = append(g.prog, in) }
func (g *rawGen) scratch() int32          { return int32(scratchBase + g.next()%scratchSize) }
func (g *rawGen) fpu(op coproc.FPUOp) int32 {
	return isa.CoprocOff(1, coproc.FPUCmd(op, uint8(g.next()), 0))
}
func (g *rawGen) mem(op isa.MemOp, r isa.Reg) {
	g.emit(isa.Instruction{Class: isa.ClassMem, Mem: op, Rd: r, Off: g.scratch()})
}

var rawALU = []isa.CompOp{isa.CompAdd, isa.CompSub, isa.CompAddu, isa.CompSubu, isa.CompAnd, isa.CompOr,
	isa.CompXor, isa.CompSh, isa.CompSetGt, isa.CompSetLt, isa.CompSetEq, isa.CompSetOvf}

func (g *rawGen) alu(rd, rs1 isa.Reg) {
	in := isa.Instruction{Class: isa.ClassCompute, Comp: rawALU[g.next()%len(rawALU)], Rd: rd, Rs1: rs1, Rs2: g.reg()}
	if in.Comp == isa.CompSh {
		in.Func = uint16(g.next() % 32)
	}
	g.emit(in)
}

// gap emits 0–3 fillers, each a no-op or an ALU op.
func (g *rawGen) gap() {
	for n := g.next() % 4; n > 0; n-- {
		if g.next()%2 == 0 {
			g.emit(isa.Nop())
		} else {
			g.alu(g.reg(), g.reg())
		}
	}
}

// forward emits a transfer to the label 1–3 past here, then a gap.
func (g *rawGen) forward(in isa.Instruction, here int) {
	g.fixes = append(g.fixes, [2]int{len(g.prog), here + 1 + g.next()%3})
	g.emit(in)
	g.gap()
}

func (g *rawGen) branch(rs1 isa.Reg, here int) {
	g.forward(isa.Instruction{Class: isa.ClassBranch, Cond: isa.Cond(g.next() % 6), Squash: g.next()%2 == 1,
		Rs1: rs1, Rs2: g.reg()}, here)
}

// consume emits an instruction that reads r.
func (g *rawGen) consume(r isa.Reg, here int) {
	switch g.next() % 6 {
	case 0:
		g.alu(g.reg(), r)
	case 1:
		g.mem(isa.MemSt, r)
	case 2:
		g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: r, Off: isa.CoprocOff(asm.SysCoproc, asm.CmdPutWord)})
	case 3:
		g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: r, Off: g.fpu(coproc.FGetR)})
	case 4: // r as a console operation's base: the command comes from a register
		g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: g.reg(), Rs1: r, Off: isa.CoprocOff(asm.SysCoproc, asm.CmdPutWord)})
	default:
		g.branch(r, here)
	}
}

// piece decodes one program piece at loop depth depth.
func (g *rawGen) piece(depth int) {
	here := len(g.labels)
	g.labels = append(g.labels, len(g.prog))
	switch g.next() % 10 {
	case 0:
		g.alu(g.reg(), g.reg())
	case 1:
		imm := []isa.ImmOp{isa.ImmAddi, isa.ImmAddiu, isa.ImmLhi}[g.next()%3]
		g.emit(isa.Instruction{Class: isa.ClassComputeImm, Imm: imm, Rd: g.reg(), Rs1: g.reg(), Off: int32(g.next()) - 128})
	case 2: // a producer, a gap, a consumer
		r := g.reg()
		switch g.next() % 5 {
		case 0:
			g.mem(isa.MemLd, r)
		case 1:
			g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemLdc, Rd: r, Off: g.fpu(coproc.FGetR)})
		case 2:
			g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemLdc, Rd: r, Off: g.fpu(coproc.FGetS)})
		case 3:
			g.alu(r, g.reg())
		default:
			spec := []uint16{isa.SpecPSW, isa.SpecPSWold, isa.SpecMD}[g.next()%3]
			g.emit(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMovs, Rd: r, Func: spec})
		}
		g.gap()
		g.consume(r, here)
	case 3: // MD traffic: a mots md, a gap, a reader of MD
		g.emit(isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMots, Rs1: g.reg(), Func: isa.SpecMD})
		g.gap()
		in := isa.Instruction{Class: isa.ClassCompute, Comp: isa.CompMovs, Rd: g.reg(), Func: isa.SpecMD}
		if k := g.next() % 3; k > 0 {
			in = isa.Instruction{Class: isa.ClassCompute, Comp: []isa.CompOp{isa.CompMstep, isa.CompDstep}[k-1],
				Rd: in.Rd, Rs1: g.reg(), Rs2: g.reg()}
		}
		g.emit(in)
	case 4:
		g.mem(isa.MemSt, g.reg())
	case 5: // FPU traffic
		switch g.next() % 4 {
		case 0:
			g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw, Off: g.fpu(coproc.FPUOp(g.next() % 10))})
		case 1:
			g.emit(isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: g.reg(), Off: g.fpu(coproc.FGetR)})
		default:
			g.mem([]isa.MemOp{isa.MemLdf, isa.MemStf}[g.next()%2], isa.Reg(g.next()%16))
		}
	case 6: // console: putw, putc or an early halt by cpw, stc or ldc
		in := isa.Instruction{Class: isa.ClassMem, Mem: isa.MemStc, Rd: g.reg(), Off: isa.CoprocOff(asm.SysCoproc, asm.CmdHalt)}
		if k := g.next() % 3; k < 2 {
			in.Off = isa.CoprocOff(asm.SysCoproc, uint16(asm.CmdPutWord+k))
		} else {
			in.Mem = []isa.MemOp{isa.MemCpw, isa.MemStc, isa.MemLdc}[g.next()%3]
		}
		g.emit(in)
	case 7:
		g.branch(g.reg(), here)
	case 8:
		g.forward(isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmJspci, Rd: isa.Reg(g.next() % 16)}, here)
	default: // a counted loop: init, 1–3 pieces, decrement, gap, backward branch
		if depth == 2 || g.loops == rawLoops {
			g.alu(g.reg(), g.reg())
			return
		}
		c := isa.Reg(16 + g.loops)
		g.loops++
		g.emit(isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddiu, Rd: c, Off: int32(1 + g.next()%4)})
		top := len(g.prog)
		for n := 1 + g.next()%3; n > 0; n-- {
			g.piece(depth + 1)
		}
		g.labels = append(g.labels, len(g.prog))
		g.emit(isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddiu, Rd: c, Rs1: c, Off: -1})
		g.gap()
		g.emit(isa.Instruction{Class: isa.ClassBranch, Cond: isa.CondGt, Squash: g.next()%2 == 1,
			Rs1: c, Off: int32(top - len(g.prog))})
		g.gap()
	}
}

func rawImage(data []byte) *asm.Image {
	prog := rawProgram(data)
	im := &asm.Image{Words: make([]isa.Word, len(prog))}
	for i, in := range prog {
		im.Words[i] = in.Encode()
	}
	return im
}

// runRaw decodes data and, when lint reports no error for the slot count,
// runs the check on it. A raw program the golden model refuses, or that
// does not halt within its budget, is skipped. runRaw reports whether the
// program ran.
func runRaw(t *testing.T, data []byte, slots int, thrash bool) bool {
	t.Helper()
	im := rawImage(data)
	if lint.CheckImage(im, lint.Config{Slots: slots}).HasErrors() {
		return false
	}
	_, err := checkImage(t, im, slots, thrash, rawBudget)
	return err == nil
}

// checkImage runs im on the golden model and then on the pipelined
// machine, and fails t on any disagreement. When the golden model refuses
// the program or does not halt within budget instructions, checkImage
// returns that error and runs nothing else. Otherwise the pipeline, with
// the dynamic hazard checker on and the default or a thrash-prone Icache,
// must halt with no violation and the same output, r1–r31, scratch region
// and every word the golden model stored; its ledger must conserve; and
// lint.CrossCheck must pass. checkImage returns the halted golden model.
func checkImage(t *testing.T, im *asm.Image, slots int, thrash bool, budget uint64) (*Machine, error) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		var b strings.Builder
		for i, w := range im.Words {
			fmt.Fprintf(&b, "%4d: %v\n", i, isa.Decode(w))
		}
		t.Fatalf("%d-slot machine: "+format+"\n%s", append(append([]any{slots}, args...), b.String())...)
	}
	ref := New(slots, im.Base, im.Words)
	if e, ok := im.Symbols["main"]; ok {
		ref.PC = e
	}
	if err := ref.Run(budget); err != nil {
		return nil, err
	}

	cfg := core.DefaultConfig()
	cfg.Pipeline.BranchSlots = slots
	cfg.Pipeline.CheckHazards = true
	if thrash {
		// A thrash-prone Icache keeps miss service in the middle of nearly
		// every basic block.
		cfg.Icache.Sets, cfg.Icache.Ways, cfg.Icache.BlockWords, cfg.Icache.MissPenalty = 2, 1, 4, 6
	}
	m := core.New(cfg, nil)
	m.Observe(obs.NewMachineSink())
	m.Load(im)
	prof := obs.NewPCProfile(uint32(im.Base), len(im.Words))
	m.CPU.Prof = prof
	if _, err := m.Run(pipeBudget); err != nil {
		fail("pipeline: %v (the golden model halted)", err)
	}
	if v := m.CPU.Violations; len(v) > 0 {
		fail("lint-clean program tripped the dynamic hazard checker: %v", v[0])
	}
	if err := m.VerifyAttribution(); err != nil {
		fail("attribution broken: %v", err)
	}
	if got, want := m.Output(), ref.Out.String(); got != want {
		fail("pipeline printed %q, golden model %q", got, want)
	}
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if got, want := m.CPU.Reg(r), ref.reg(r); got != want {
			fail("r%d = %#x, golden model says %#x", r, got, want)
		}
	}
	for a := isa.Word(scratchBase); a < scratchBase+scratchSize; a++ {
		if got, want := m.Mem.Peek(a), ref.Mem[a]; got != want {
			fail("mem[%#x] = %#x, golden model says %#x", a, got, want)
		}
	}
	for a, want := range ref.Mem {
		if got := m.Mem.Peek(a); got != want {
			fail("mem[%#x] = %#x, golden model says %#x", a, got, want)
		}
	}
	if err := lint.CrossCheck(im, slots, prof, m.Obs.Ledger, m.CPU.Stats.Exceptions); err != nil {
		fail("%v", err)
	}
	return ref, nil
}

// TestRandomProgramsMatchGoldenModel runs the check over raw programs
// decoded from byte strings of a fixed seed: at least 300 that lint passes
// for the 2-slot machine must run.
func TestRandomProgramsMatchGoldenModel(t *testing.T) { runRawTrials(t, 2, 300) }

// TestOneSlotRandomProgramsMatchGoldenModel is the same over the same byte
// strings on the 1-slot machine: at least 100 must run.
func TestOneSlotRandomProgramsMatchGoldenModel(t *testing.T) { runRawTrials(t, 1, 100) }

func runRawTrials(t *testing.T, slots, want int) {
	rng := rand.New(rand.NewSource(1234))
	ran := 0
	for trial := 0; trial < 700; trial++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		if runRaw(t, data, slots, trial%2 == 1) {
			ran++
		}
	}
	if ran < want {
		t.Fatalf("ran %d %d-slot programs, want at least %d", ran, slots, want)
	}
	t.Logf("ran %d %d-slot programs", ran, slots)
}

// TestCompiledSuiteMatchesGoldenModel runs the check over every compiled
// benchmark under the default scheme; the golden model must print the
// benchmark's expected output.
func TestCompiledSuiteMatchesGoldenModel(t *testing.T) {
	for _, b := range tinyc.Benchmarks() {
		t.Run(b.Name, func(t *testing.T) {
			im, err := tinyc.Build(b.Source, reorg.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := checkImage(t, im, 2, false, fuzzBudget)
			if err != nil {
				t.Fatalf("golden model: %v", err)
			}
			if got, want := ref.Out.String(), b.Expect(); got != want {
				t.Fatalf("golden model printed %q, want %q", got, want)
			}
		})
	}
}

// rawBoundarySeeds hold, for each distance rule, a producer and its
// consumer at the shortest distance lint accepts (near) and one
// instruction closer (close). Both seed FuzzRawVsRefmodel.
var rawBoundarySeeds = []struct {
	rule        string
	slots       int
	near, close []byte
}{
	// ld r2; nop; add r3, r2, r2
	{lint.RuleLoadUse, 2, []byte{2, 1, 0, 5, 1, 0, 0, 2, 0, 1}, []byte{2, 1, 0, 5, 0, 0, 2, 0, 1}},
	// ldc r2 from FPU register 0; nop; putw r2
	{lint.RuleCoprocTransfer, 2, []byte{2, 1, 1, 0, 1, 0, 2}, []byte{2, 1, 1, 0, 0, 2}},
	// mots md, r2; nop; mstep r3, r2, r2
	{lint.RuleSpecialTiming, 2, []byte{3, 1, 1, 0, 2, 1, 1, 1}, []byte{3, 1, 0, 2, 1, 1, 1}},
	// addu r2, r1, r1; nop; beq r2, r1 (a quick compare on the 1-slot machine)
	{lint.RuleQuickBranch, 1, []byte{2, 1, 3, 0, 2, 0, 1, 0, 5}, []byte{2, 1, 3, 0, 2, 0, 0, 5}},
}

// TestRawSeedsSitAtLintBoundaries: each near seed is kept and passes the
// check, and its close seed, one instruction shorter, is rejected by its
// rule.
func TestRawSeedsSitAtLintBoundaries(t *testing.T) {
	for _, s := range rawBoundarySeeds {
		t.Run(s.rule, func(t *testing.T) {
			near, close := rawImage(s.near), rawImage(s.close)
			if len(close.Words) != len(near.Words)-1 {
				t.Fatalf("close seed has %d words, want one fewer than near's %d", len(close.Words), len(near.Words))
			}
			if !runRaw(t, s.near, s.slots, false) {
				t.Fatalf("near seed was not kept:\n%s", lint.CheckImage(near, lint.Config{Slots: s.slots}))
			}
			rep := lint.CheckImage(close, lint.Config{Slots: s.slots})
			if errs := rep.Errors(); len(errs) == 0 || errs[0].Rule != s.rule {
				t.Fatalf("close seed not rejected by %s:\n%s", s.rule, rep)
			}
		})
	}
}

// TestHaltRetiresNothingBehindIt: nothing behind a halt retires on the
// pipeline, so the golden model must not run the second delay slot after a
// halt in the first, nor write the register of a halting ldc; r2 keeps 3.
// The straight-line halts are inside the static cost model's exact scope.
func TestHaltRetiresNothingBehindIt(t *testing.T) {
	for _, src := range []string{
		"main:\taddi r2, r0, 3\n\tbeq r0, r0, t\n\thalt\n\taddi r2, r0, 5\nt:\thalt\n",
		"main:\taddi r2, r0, 3\n\tldc r2, c7, 16383(r0)\n\thalt\n",
		"main:\taddi r2, r0, 3\n\tstc r2, c7, 16383(r0)\n\thalt\n",
	} {
		im, err := asm.AssembleSource(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := checkImage(t, im, 2, false, rawBudget)
		if err != nil {
			t.Fatal(err)
		}
		if r2 := ref.reg(2); r2 != 3 {
			t.Fatalf("golden model r2 = %d, want 3:\n%s", r2, src)
		}
	}
}

// TestSelfModifyingStoreMatchesGoldenModel: programs whose fetched words
// change under the pipeline's feet, run through the check under both
// branch-slot counts. The pipeline fetches through the Icache and its
// decode memo, so a fetch that served a stale word, or a stale decode,
// would diverge from the golden model, which decodes memory directly.
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
				ref, err := checkImage(t, im, slots, false, 1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if got := ref.Out.String(); got != tc.want {
					t.Fatalf("golden model printed %q, want %q", got, tc.want)
				}
			})
		}
	}
}
