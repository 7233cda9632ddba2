// Package pipeline implements the MIPS-X processor core: the five-stage
// pipeline of paper Figure 1 (IF, RF, ALU, MEM, WB) with two levels of
// bypassing, delayed writeback, software-managed interlocks, squashing
// branches, the ψ1 qualified-clock stall discipline, and the paper's
// minimal-state exception mechanism (pipeline freeze, PC chain, PSW/PSWold,
// three-jump restart).
//
// Fidelity notes (see DESIGN.md §5 for the full list):
//
//   - There are NO hardware interlocks. An instruction that uses a register
//     loaded by the immediately preceding instruction reads the old value,
//     exactly as the hardware would; the code reorganizer is responsible for
//     never emitting such code. The optional hazard checker records
//     violations so tests can prove reorganizer output is hazard-free.
//   - Stalls (Icache miss, Ecache late miss, coprocessor busy) freeze the
//     whole pipe — the ψ1 qualified clock — so they are modeled by charging
//     stall cycles without advancing the latches.
//   - An exception is recognized when the faulting instruction reaches MEM:
//     the instructions in MEM and ALU are no-opped by the Exception line,
//     those in RF and IF by Squash, the PC chain freezes holding the PCs of
//     the three instructions to restart, PSW→PSWold, PC←0, system mode.
//   - Branches resolve in ALU and carry BranchSlots (=2) delay slots. The
//     squash bit squashes the slots when the branch does NOT go (static
//     predict-taken). The one-slot configuration models the quick-compare
//     alternative the paper evaluated and dropped: the branch resolves a
//     stage early and therefore cannot see bypassed operands — operands
//     produced at distance 1 (or loads at distance 2) are stale.
package pipeline

import (
	"fmt"

	"repro/internal/coproc"
	"repro/internal/isa"
	"repro/internal/obs"
)

// InstrPort supplies instruction words; implemented by icache.Cache.
// The int result is the stall in cycles the fetch cost beyond one cycle.
type InstrPort interface {
	Fetch(a isa.Word) (isa.Word, int)
}

// DataPort performs data accesses; implemented by ecache.Cache.
type DataPort interface {
	Read(a isa.Word) (isa.Word, int)
	Write(a, w isa.Word) int
}

// Config selects the design variants under study.
type Config struct {
	// BranchSlots is the branch delay: 2 (the machine as built) or 1 (the
	// quick-compare alternative).
	BranchSlots int
	// StickyOverflow selects the rejected sticky-overflow-bit design instead
	// of the trap on overflow (ablation E8).
	StickyOverflow bool
	// CheckHazards records software-interlock violations (reorganizer bugs).
	CheckHazards bool
}

// DefaultConfig is the machine as built.
func DefaultConfig() Config {
	return Config{BranchSlots: 2}
}

// Violation records a software-interlock violation: the program observed a
// stale register value the reorganizer should have scheduled around.
type Violation struct {
	PC     isa.Word
	Reason string
}

func (v Violation) String() string { return fmt.Sprintf("pc %#x: %s", v.PC, v.Reason) }

// Stats accumulates everything the experiments need.
type Stats struct {
	Cycles   uint64
	Fetches  uint64
	Retired  uint64 // instructions completing WB (includes explicit no-ops)
	Nops     uint64 // retired explicit no-op instructions
	Squashed uint64 // instructions killed by branch squash (wasted cycles)
	Killed   uint64 // instructions killed by exception entry

	Branches       uint64 // conditional branches resolved
	TakenBranches  uint64
	SquashEvents   uint64 // mispredicted squashing branches
	Jumps          uint64 // jspci/jpc/jpcrs resolved
	BranchSlotNops uint64 // explicit no-ops observed in branch delay slots
	// BranchWasted is the total wasted branch-slot cycles: squashed slots
	// plus no-op slots. Cycles/branch = 1 + BranchWasted/Branches.
	BranchWasted uint64

	Loads, Stores uint64
	CoprocOps     uint64
	FPMemOps      uint64 // ldf/stf direct FPU↔memory transfers

	IcacheStalls uint64
	DataStalls   uint64
	CoprocStalls uint64

	Exceptions uint64
	Interrupts uint64
	Overflows  uint64 // overflow conditions observed (trapped or sticky)

	// CompareForBranch statistics for experiment E3: how many conditional
	// branches compare two general values (needing the explicit compare that
	// condition-code machines fold into a prior op) versus comparing against
	// r0, and how many would be quick-compare eligible (equality/sign).
	BranchCmpZero uint64 // one operand is r0
	BranchCmpEq   uint64 // eq/ne comparisons (quick-compare eligible)
	BranchCmpSign uint64 // lt/ge against zero (quick-compare eligible)
}

// Issued is the number of instruction positions that flowed down the pipe to
// completion or death: retired + squashed + exception-killed.
func (s Stats) Issued() uint64 { return s.Retired + s.Squashed + s.Killed }

// CPI is cycles per issued instruction (the paper's "cycles per
// instruction" counts no-ops as instructions).
func (s Stats) CPI() float64 {
	if s.Issued() == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Issued())
}

// NopFraction is the fraction of instructions that are no-ops (explicit
// no-ops plus squashed slots), the paper's 15.6%/18.3% metric.
func (s Stats) NopFraction() float64 {
	if s.Issued() == 0 {
		return 0
	}
	return float64(s.Nops+s.Squashed) / float64(s.Issued())
}

// CyclesPerBranch is the Table 1 metric: each branch costs one cycle plus
// its wasted delay-slot cycles.
func (s Stats) CyclesPerBranch() float64 {
	if s.Branches == 0 {
		return 0
	}
	return 1 + float64(s.BranchWasted)/float64(s.Branches)
}

// dec is an instruction word decoded once, with the facts the stages test
// every cycle precomputed from the isa predicates.
type dec struct {
	in   isa.Instruction
	dst  isa.Reg // general register written at WB; 0 for none
	load bool    // dst's value comes from MEM (ld, ldc), not from the ALU
	nop  bool    // the canonical no-op
}

// decode builds the record for word w. decode(0) is the zero dec: word 0 is
// "ld r0, 0(r0)", which writes no register, so a zeroed memo entry already
// holds the right record for the word it claims.
func decode(w isa.Word) dec {
	in := isa.Decode(w)
	d := dec{in: in, nop: in.IsNop()}
	if rd, ok := in.WritesReg(); ok {
		d.dst, d.load = rd, in.IsLoad()
	}
	return d
}

// memoSize is the decode memo's entry count, a power of two above the
// largest suite image (843 words).
const memoSize = 1024

// memoEntry is one line of the decode memo: a record and the word it was
// decoded from. A fetch whose word differs re-decodes, so stores that
// rewrite code need no invalidation.
type memoEntry struct {
	w isa.Word
	d dec
}

// slot is one pipeline latch.
type slot struct {
	valid bool
	pc    isa.Word
	dec

	sqNoop  bool // no-opped by Squash (branch shadow)
	excNoop bool // no-opped by Exception entry

	excCause isa.PSW // pending exception, taken when the slot reaches MEM

	// Captured at ALU:
	aluOut    isa.Word
	storeData isa.Word
	mdBefore  isa.Word
	taken     bool
	// stickyOvf marks an overflow under the sticky-overflow ablation; the
	// PSW bit commits with the instruction at WB.
	stickyOvf bool

	// Captured at MEM:
	memData isa.Word

	// fetC is the cycle the slot was fetched, stamped only when the tracer
	// records per-instruction occupancy spans (Tracer.Instrs).
	fetC uint64
}

func (s *slot) annulled() bool { return s.sqNoop || s.excNoop }

// alive reports whether the slot holds an instruction that will execute.
func (s *slot) alive() bool { return s.valid && !s.annulled() }

// CPU is the MIPS-X processor core.
type CPU struct {
	Cfg Config

	regs  [isa.NumRegs]isa.Word
	psw   isa.PSW
	swOld isa.PSW
	md    isa.Word
	chain [3]isa.Word // pc0 (oldest) .. pc2
	pc    isa.Word

	// Pipeline latches. iRF..iWB index the latch each stage processes this
	// cycle and rotate at the end of Step, so an instruction moves down the
	// pipe without its latch being copied. IF fills the latch WB has just
	// retired, in place; there is no separate IF latch.
	lat                  [4]slot
	iRF, iALU, iMEM, iWB uint8

	// pendingSlotBranch marks that a branch resolved this cycle without a
	// squash, so Step must count explicit no-ops in its delay slots for the
	// Table 1 accounting.
	pendingSlotBranch bool

	IMem    InstrPort
	DMem    DataPort
	Coprocs *coproc.Set
	FPU     *coproc.FPU // nil when no FPU is attached

	// Interrupt request lines, sampled each cycle.
	IntLine bool // maskable
	NMILine bool // non-maskable

	Squash SquashFSM

	Stats      Stats
	Violations []Violation

	// BranchTrace, when non-nil, receives every resolved conditional branch
	// (used for profiling and the branch-prediction experiments).
	BranchTrace func(pc isa.Word, in isa.Instruction, taken bool)

	// Prof, when non-nil, accumulates the per-PC writeback profile consumed
	// by the static cycle-cost model (internal/lint): block execution counts
	// and conditional-branch outcomes. It is charged at WB — the same point
	// attributeWB charges the ledger's base causes — so profile counts and
	// ledger causes partition exactly the same instruction population
	// (in-flight instructions at halt and exception-killed slots appear in
	// neither).
	Prof *obs.PCProfile

	// Obs, when non-nil, receives cycle attribution and trace events. The
	// pipeline charges exactly one base cause per Step (from the slot
	// retiring at WB) plus coprocessor busy stalls; the instruction and data
	// caches charge their own stall causes, so conservation
	// (sum(causes) == Stats.Cycles) holds when the memory ports share this
	// sink — core.Machine.Observe wires that up.
	Obs *obs.Sink

	// labels memoizes each instruction's pipe-span label. It is allocated
	// on the first retire the tracer records a span for, so an untraced
	// CPU holds nil. The blank field keeps memo at the offset the cycle
	// loop was measured at.
	labels *spanLabels
	_      [16]byte

	// memo is the decode memo, direct-mapped by fetch PC and validated by
	// the fetched word. It is the last field so the garbage collector's
	// scan of a CPU stops before it (it holds no pointers).
	memo [memoSize]memoEntry
}

// New builds a CPU with the given configuration and memory ports.
func New(cfg Config, imem InstrPort, dmem DataPort, cps *coproc.Set) *CPU {
	if cfg.BranchSlots != 1 && cfg.BranchSlots != 2 {
		panic("pipeline: BranchSlots must be 1 or 2")
	}
	c := &CPU{Cfg: cfg, IMem: imem, DMem: dmem, Coprocs: cps, psw: isa.ResetPSW,
		iRF: 0, iALU: 1, iMEM: 2, iWB: 3}
	if cps != nil {
		if f, ok := cps.Get(1).(*coproc.FPU); ok {
			c.FPU = f
		}
	}
	return c
}

// Reset returns the CPU to the architectural reset state with PC = entry.
func (c *CPU) Reset(entry isa.Word) {
	c.regs = [isa.NumRegs]isa.Word{}
	c.psw = isa.ResetPSW
	c.swOld = 0
	c.md = 0
	c.chain = [3]isa.Word{}
	c.pc = entry
	c.lat = [4]slot{}
}

// The latch each stage processes this cycle.
func (c *CPU) rf() *slot  { return &c.lat[c.iRF&3] }
func (c *CPU) alu() *slot { return &c.lat[c.iALU&3] }
func (c *CPU) mem() *slot { return &c.lat[c.iMEM&3] }
func (c *CPU) wb() *slot  { return &c.lat[c.iWB&3] }

// Reg returns register r (r0 reads zero).
func (c *CPU) Reg(r isa.Reg) isa.Word {
	if r == 0 {
		return 0
	}
	return c.regs[r]
}

// SetReg writes register r (writes to r0 vanish). Intended for test and
// loader setup, not for use mid-run.
func (c *CPU) SetReg(r isa.Reg, v isa.Word) {
	if r != 0 {
		c.regs[r] = v
	}
}

// PC returns the current fetch PC.
func (c *CPU) PC() isa.Word { return c.pc }

// PSW returns the current processor status word.
func (c *CPU) PSW() isa.PSW { return c.psw }

// MD returns the multiply/divide register.
func (c *CPU) MD() isa.Word { return c.md }

func (c *CPU) violate(pc isa.Word, format string, args ...any) {
	if c.Cfg.CheckHazards {
		c.Violations = append(c.Violations, Violation{PC: pc, Reason: fmt.Sprintf(format, args...)})
	}
}

// operand resolves a source register value as seen by an instruction in its
// ALU cycle: the register file (which already contains everything up to
// distance 3) plus the first-level bypass from the instruction one ahead
// (now in MEM). A distance-1 load is a software-interlock violation: its
// data arrives only at the end of the current cycle.
func (c *CPU) operand(r isa.Reg, pc isa.Word) isa.Word {
	v := c.Reg(r)
	if r == 0 {
		return 0
	}
	if m := c.mem(); m.dst == r && m.alive() {
		if m.load {
			c.violate(pc, "uses r%d loaded by the previous instruction (load delay slot unfilled)", r)
			return v // stale value, as the hardware would supply
		}
		return m.aluOut
	}
	return v
}

// quickOperand resolves a source register for a quick-compare branch in its
// RF cycle (BranchSlots == 1). One fewer bypass level exists: a distance-1
// producer of any kind and a distance-2 load are both stale.
func (c *CPU) quickOperand(r isa.Reg, pc isa.Word) isa.Word {
	v := c.Reg(r)
	if r == 0 {
		return 0
	}
	if a := c.alu(); a.dst == r && a.alive() {
		c.violate(pc, "quick compare uses r%d produced by the previous instruction", r)
		return v
	}
	if m := c.mem(); m.dst == r && m.alive() {
		if m.load {
			c.violate(pc, "quick compare uses r%d loaded two instructions back", r)
			return v
		}
		return m.aluOut
	}
	return v
}

// special reads a special register (movs).
func (c *CPU) special(sel uint16) isa.Word {
	switch sel {
	case isa.SpecPSW:
		return isa.Word(c.psw)
	case isa.SpecPSWold:
		return isa.Word(c.swOld)
	case isa.SpecMD:
		return c.md
	case isa.SpecPC0:
		return c.chain[0]
	case isa.SpecPC1:
		return c.chain[1]
	case isa.SpecPC2:
		return c.chain[2]
	}
	return 0
}

// Step advances the machine by one architectural cycle plus any stall
// cycles it absorbs, and returns the total cycles consumed.
func (c *CPU) Step() int {
	stall := 0

	// ---- Exception recognition: the faulting instruction has reached MEM.
	if m := c.mem(); m.alive() && m.excCause != 0 {
		c.takeException(m.excCause)
	}

	// ---- Cycle attribution: every Step consumes one base cycle, owned by
	// whatever occupies the WB latch right now (the slot commitWB is about
	// to retire). Stall cycles are charged separately by the unit that
	// creates them, so sum(ledger) tracks Stats.Cycles exactly.
	if o := c.Obs; o != nil {
		c.attributeWB(o)
	}

	// ---- WB: the only pipestage that changes machine state.
	c.commitWB()

	// ---- MEM: data memory and coprocessor traffic.
	stall += c.stageMEM()

	// ---- ALU: computation, branch resolution, exception detection.
	redirect, redirectTo, squashEvent := c.stageALU()

	// ---- RF: quick-compare branch resolution in the one-slot variant.
	if c.Cfg.BranchSlots == 1 {
		r, to, sq := c.stageRFQuick()
		// A quick-compare branch in RF and a jump in ALU cannot both
		// redirect the same fetch; the reorganizer never emits a transfer in
		// a delay slot. Prefer the older instruction (ALU) if it happens.
		if r && !redirect {
			redirect, redirectTo = true, to
		}
		squashEvent = squashEvent || sq
	}

	// ---- IF: fetch into the latch WB just retired, decoding the word only
	// when the memo holds another.
	f := c.wb()
	w, s := c.IMem.Fetch(c.pc)
	stall += s
	c.Stats.IcacheStalls += uint64(s)
	c.Stats.Fetches++
	e := &c.memo[c.pc&(memoSize-1)]
	if e.w != w {
		e.w, e.d = w, decode(w)
	}
	f.valid = true
	f.pc = c.pc
	f.dec = e.d
	f.sqNoop, f.excNoop, f.taken, f.stickyOvf = false, false, false, false
	f.excCause = 0
	f.aluOut, f.storeData, f.mdBefore, f.memData = 0, 0, 0, 0
	f.fetC = 0
	if o := c.Obs; o != nil && o.Tracer != nil && o.Tracer.Instrs {
		f.fetC = c.Stats.Cycles
	}

	// ---- Apply squash marks to the shadow instructions.
	if squashEvent {
		if c.Cfg.BranchSlots == 2 {
			c.rf().sqNoop = true
		}
		f.sqNoop = true
		c.Squash.Trigger(CauseBranch, c.Cfg.BranchSlots)
		if o := c.Obs; o != nil && o.Tracer != nil {
			o.Tracer.Instant(obs.TrackMarks, "ctl", "branch-squash", o.Cycle(), obs.Arg{})
		}
	}

	// ---- Table 1 accounting: a branch that resolved without squashing
	// wastes exactly the explicit no-ops sitting in its delay slots (an
	// empty latch is zeroed, so it is no no-op).
	if c.pendingSlotBranch {
		c.pendingSlotBranch = false
		if c.Cfg.BranchSlots == 2 && c.rf().nop {
			c.Stats.BranchSlotNops++
			c.Stats.BranchWasted++
		}
		if f.nop {
			c.Stats.BranchSlotNops++
			c.Stats.BranchWasted++
		}
	}

	// ---- Interrupt attachment. An interrupt pends until the instruction in
	// ALU is a clean restart point: attaching to a squashed instruction
	// would put a branch shadow into the PC chain without its branch.
	c.sampleInterrupts()

	// ---- Shift the pipe and update the PC.
	c.iRF, c.iALU, c.iMEM, c.iWB = c.iWB, c.iRF, c.iALU, c.iMEM
	if redirect {
		c.pc = redirectTo
	} else {
		c.pc++
	}

	// ---- PC chain shifting (frozen during exception handling).
	if c.psw.ShiftEnabled() {
		c.chain = [3]isa.Word{c.mem().pc, c.alu().pc, c.rf().pc}
	}

	c.Squash.Tick()
	c.Stats.Cycles += uint64(1 + stall)
	return 1 + stall
}

// attributeWB charges this Step's base cycle to the cause that owns the WB
// latch: an empty latch is pipeline fill/drain, a squash-annulled slot is a
// wasted branch-shadow cycle, an exception-killed slot is exception entry
// cost, a retiring explicit no-op is reorganizer padding, and anything else
// is useful execution. Exactly one of these fires per Step, which is what
// makes the ledger's conservation invariant exact. It also closes the
// per-instruction occupancy span when the tracer records them.
func (c *CPU) attributeWB(o *obs.Sink) {
	s := c.wb()
	switch {
	case !s.valid:
		o.Ledger.Add(obs.CausePipeFill, 1)
	case s.sqNoop:
		o.Ledger.Add(obs.CauseSquashAnnul, 1)
	case s.excNoop:
		o.Ledger.Add(obs.CauseExceptionKill, 1)
	case s.nop:
		o.Ledger.Add(obs.CauseNop, 1)
	default:
		o.Ledger.Add(obs.CauseExecute, 1)
	}
	if t := o.Tracer; t != nil && t.Instrs && s.valid {
		annulled := ""
		switch {
		case s.sqNoop:
			annulled = "squash"
		case s.excNoop:
			annulled = "exception"
		}
		label, head := c.label(s)
		t.PipeSpan(label, head, s.fetC, c.Stats.Cycles, annulled)
	}
}

// spanLabels is the pipe-span label memo, direct-mapped by pc like the
// decode memo. Labels sit back to back in one arena, so an entry locates
// its label by offsets into it.
type spanLabels struct {
	memo  [memoSize]labelEntry
	arena []byte
	name  []byte // the disassembly being encoded
}

// labelEntry locates the label encoded for one pc and instruction: it is
// arena[off:end], its head the first head bytes. end is 0 in an entry
// that holds none.
type labelEntry struct {
	pc             isa.Word
	in             isa.Instruction
	off, end, head uint32
}

// labelArenaCap bounds the label arena. Code rewritten in place, or two
// hot pcs on one memo line, re-encode labels without end; past this size
// the memo starts over.
const labelArenaCap = memoSize * 128

// label returns the pipe-span label of the instruction retiring from s
// and its head length, encoding it unless the memo holds it for the same
// pc and instruction.
func (c *CPU) label(s *slot) ([]byte, int) {
	l := c.labels
	if l == nil {
		l = new(spanLabels)
		c.labels = l
	}
	e := &l.memo[s.pc&(memoSize-1)]
	if e.end == 0 || e.pc != s.pc || e.in != s.in {
		if len(l.arena) > labelArenaCap {
			l.memo, l.arena = [memoSize]labelEntry{}, l.arena[:0]
		}
		l.name = s.in.Append(l.name[:0])
		off := len(l.arena)
		var head int
		l.arena, head = obs.AppendPipeLabel(l.arena, l.name, uint32(s.pc))
		*e = labelEntry{pc: s.pc, in: s.in, off: uint32(off), end: uint32(len(l.arena)), head: uint32(head)}
	}
	return l.arena[e.off:e.end], int(e.head)
}

// takeException implements exception entry: Exception no-ops MEM and ALU,
// Squash no-ops RF and IF (the IF-stage instruction is simply never fetched
// again — its PC is not in the chain because fetch restarts at the handler),
// the PC chain freezes holding the three instructions to restart, the PSW is
// saved, and fetch moves to address zero in system space.
func (c *CPU) takeException(cause isa.PSW) {
	c.Stats.Exceptions++
	if cause&(isa.PSWCauseInt|isa.PSWCauseNMI) != 0 {
		c.Stats.Interrupts++
	}
	kill := func(s *slot) {
		if s.valid && !s.annulled() {
			s.excNoop = true
			c.Stats.Killed++
		}
	}
	// Roll back the speculative MD register to the value before the killed
	// MEM-stage instruction's ALU cycle.
	if m := c.mem(); m.alive() {
		c.md = m.mdBefore
	}
	kill(c.mem())
	kill(c.alu())
	kill(c.rf())
	c.Squash.Trigger(CauseException, 2)
	if o := c.Obs; o != nil && o.Tracer != nil {
		o.Tracer.Instant(obs.TrackMarks, "ctl", "exception", o.Cycle(), obs.CauseArg(uint32(cause)))
	}

	// chain already holds [MEM.pc, ALU.pc, RF.pc] from last cycle's shift;
	// the new PSW freezes it.
	c.swOld = c.psw
	c.psw = isa.ExceptionEntryPSW(cause)
	c.pc = 0
}

// commitWB retires the WB latch: the single point where machine state
// changes (delayed writeback). The latch keeps its contents until IF
// refills it later in the same Step.
func (c *CPU) commitWB() {
	s := c.wb()
	if !s.valid {
		return
	}
	if s.sqNoop {
		c.Stats.Squashed++
		c.Prof.NoteWB(uint32(s.pc))
		return
	}
	if s.excNoop {
		return // already counted at kill time
	}
	c.Stats.Retired++
	c.Prof.NoteWB(uint32(s.pc))
	if s.in.Class == isa.ClassBranch &&
		!(s.in.Cond == isa.CondEq && s.in.Rs1 == 0 && s.in.Rs2 == 0) {
		// Branch outcome recorded at retirement rather than resolution, so a
		// run that halts mid-pipe never records an outcome for a branch whose
		// delay slots did not all reach WB — keeping the profile's annul
		// arithmetic exactly consistent with the ledger.
		c.Prof.NoteBranch(uint32(s.pc), s.taken)
	}
	if s.nop {
		c.Stats.Nops++
	}

	in := &s.in
	// General register result.
	if s.dst != 0 {
		v := s.aluOut
		if s.load {
			v = s.memData
		}
		c.regs[s.dst&(isa.NumRegs-1)] = v
	}
	// Special-register writes commit here too; Exception and Squash
	// suppress them exactly like register writes (the paper's one added
	// complexity for MD and PSW).
	if in.Class == isa.ClassCompute {
		switch in.Comp {
		case isa.CompMots:
			switch in.Func {
			case isa.SpecPSW:
				c.psw = isa.PSW(s.storeData)
			case isa.SpecPSWold:
				c.swOld = isa.PSW(s.storeData)
			case isa.SpecMD:
				c.md = s.storeData
			case isa.SpecPC0:
				c.chain[0] = s.storeData
			case isa.SpecPC1:
				c.chain[1] = s.storeData
			case isa.SpecPC2:
				c.chain[2] = s.storeData
			}
		}
	}
	// Sticky-overflow ablation: the bit commits with the instruction.
	if s.stickyOvf {
		c.psw |= isa.PSWStickyOvf
	}
}

// stageMEM performs the MEM pipestage for the latch in MEM: external data
// access or coprocessor operation. Returns stall cycles.
func (c *CPU) stageMEM() int {
	s := c.mem()
	if !s.alive() {
		return 0
	}
	// jpcrs restores PSW←PSWold here rather than at WB so that the first
	// restarted instruction (whose ALU runs this same cycle) already
	// executes under the restored PSW — privilege, interrupt mask and
	// overflow trapping included. This is still exception-precise: an
	// exception recognized on jpcrs kills it before this point.
	if s.in.Class == isa.ClassCompute && s.in.Comp == isa.CompJpcrs {
		c.psw = c.swOld
		return 0
	}
	if s.in.Class != isa.ClassMem {
		return 0
	}
	in := s.in
	stall := 0
	switch in.Mem {
	case isa.MemLd:
		c.Stats.Loads++
		w, st := c.DMem.Read(s.aluOut)
		s.memData = w
		stall = st
		c.Stats.DataStalls += uint64(st)
	case isa.MemSt:
		c.Stats.Stores++
		st := c.DMem.Write(s.aluOut, s.storeData)
		stall = st
		c.Stats.DataStalls += uint64(st)
	case isa.MemLdf:
		c.Stats.FPMemOps++
		w, st := c.DMem.Read(s.aluOut)
		if c.FPU != nil {
			c.FPU.LoadReg(in.Rd, w)
		}
		stall = st
		c.Stats.DataStalls += uint64(st)
	case isa.MemStf:
		c.Stats.FPMemOps++
		var w isa.Word
		if c.FPU != nil {
			w = c.FPU.StoreReg(in.Rd)
		}
		st := c.DMem.Write(s.aluOut, w)
		stall = st
		c.Stats.DataStalls += uint64(st)
	case isa.MemLdc, isa.MemStc, isa.MemCpw:
		c.Stats.CoprocOps++
		res, st := c.Coprocs.Exec(in.CoprocNum(), in.Mem, s.aluOut, s.storeData)
		if in.Mem == isa.MemLdc {
			s.memData = res
		}
		stall = st
		c.Stats.CoprocStalls += uint64(st)
		if o := c.Obs; o != nil && st > 0 {
			o.Ledger.Add(obs.CauseCoprocBusy, uint64(st))
			if o.Tracer != nil {
				o.Tracer.Span(obs.TrackCoproc, "coproc", "busy-wait", o.Cycle(), uint64(st), obs.Arg{})
			}
		}
	}
	return stall
}

// stageALU executes the ALU pipestage for the latch in ALU: operand capture
// (register file + bypasses), computation, branch/jump resolution, and
// exception detection. It returns the fetch redirect (if any) and whether a
// squash event fired.
func (c *CPU) stageALU() (redirect bool, target isa.Word, squashEvent bool) {
	s := c.alu()
	if !s.alive() {
		return false, 0, false
	}
	in := s.in
	s.mdBefore = c.md

	switch in.Class {
	case isa.ClassMem:
		// Effective address (or address-pin value for coprocessor ops).
		s.aluOut = c.operand(in.Rs1, s.pc) + isa.Word(in.Off)
		if in.Mem == isa.MemSt || in.Mem == isa.MemStc {
			s.storeData = c.operand(in.Rd, s.pc)
		}

	case isa.ClassBranch:
		if c.Cfg.BranchSlots == 1 {
			break // resolved in RF by the quick-compare variant
		}
		a := c.operand(in.Rs1, s.pc)
		b := c.operand(in.Rs2, s.pc)
		s.taken = isa.EvalCond(in.Cond, a, b)
		redirect = s.taken
		target = s.pc + isa.Word(in.Off)
		squashEvent = in.Squash && !s.taken
		c.accountBranch(s.pc, in, s.taken, squashEvent)

	case isa.ClassCompute:
		redirect, target, squashEvent = c.aluCompute(s)

	case isa.ClassComputeImm:
		a := c.operand(in.Rs1, s.pc)
		switch in.Imm {
		case isa.ImmAddi:
			s.aluOut = a + isa.Word(in.Off)
			if isa.AddOverflows(a, isa.Word(in.Off)) {
				c.overflow(s)
			}
		case isa.ImmAddiu:
			s.aluOut = a + isa.Word(in.Off)
		case isa.ImmLhi:
			s.aluOut = a + isa.Word(in.Off)<<15
		case isa.ImmJspci:
			// rd := address after the delay slots; PC := rs1 + imm. In the
			// one-slot (quick compare) variant the jump, like branches,
			// resolves a stage early (stageRFQuick).
			s.aluOut = s.pc + 1 + isa.Word(c.Cfg.BranchSlots)
			if c.Cfg.BranchSlots == 2 {
				redirect = true
				target = a + isa.Word(in.Off)
				c.Stats.Jumps++
			}
		}
	}
	return redirect, target, squashEvent
}

// aluCompute handles the compute class, including the special jumps and the
// multiply/divide steps.
func (c *CPU) aluCompute(s *slot) (redirect bool, target isa.Word, squashEvent bool) {
	in := s.in
	a := c.operand(in.Rs1, s.pc)
	b := c.operand(in.Rs2, s.pc)
	switch in.Comp {
	case isa.CompAdd:
		s.aluOut = a + b
		if isa.AddOverflows(a, b) {
			c.overflow(s)
		}
	case isa.CompSub:
		s.aluOut = a - b
		if isa.SubOverflows(a, b) {
			c.overflow(s)
		}
	case isa.CompAddu:
		s.aluOut = a + b
	case isa.CompSubu:
		s.aluOut = a - b
	case isa.CompAnd:
		s.aluOut = a & b
	case isa.CompOr:
		s.aluOut = a | b
	case isa.CompXor:
		s.aluOut = a ^ b
	case isa.CompSh:
		s.aluOut = isa.FunnelShift(a, b, uint(in.Func&31))
	case isa.CompSetGt:
		s.aluOut = bool2w(int32(a) > int32(b))
	case isa.CompSetLt:
		s.aluOut = bool2w(int32(a) < int32(b))
	case isa.CompSetEq:
		s.aluOut = bool2w(a == b)
	case isa.CompSetOvf:
		// The rejected SetOnAddOverflow: route the overflow bit into the
		// sign of the result.
		sum := a + b
		if isa.AddOverflows(a, b) {
			sum |= 1 << 31
			c.Stats.Overflows++
		} else {
			sum &^= 1 << 31
		}
		s.aluOut = sum
	case isa.CompMstep:
		// One step of an unsigned multiply: MD holds the multiplier
		// (consumed LSB first) and accumulates the low product bits; rd
		// accumulates the high bits. 32 steps compute rd:MD = rs1acc × rs2
		// when started with MD = multiplier, accumulator = 0.
		acc := a
		var carry isa.Word
		if c.md&1 != 0 {
			sum := uint64(acc) + uint64(b)
			acc = isa.Word(sum)
			carry = isa.Word(sum >> 32)
		}
		c.md = c.md>>1 | acc<<31
		s.aluOut = acc>>1 | carry<<31
	case isa.CompDstep:
		// One step of a restoring unsigned divide: MD holds the dividend
		// (consumed MSB first) and accumulates quotient bits; rd is the
		// partial remainder. 32 steps leave MD = quotient, rd = remainder.
		rem := a<<1 | c.md>>31
		c.md <<= 1
		if rem >= b && b != 0 {
			rem -= b
			c.md |= 1
		}
		s.aluOut = rem
	case isa.CompMovs:
		if m := c.mem(); m.alive() && m.in.Class == isa.ClassCompute &&
			m.in.Comp == isa.CompMots && m.in.Func == in.Func {
			c.violate(s.pc, "movs reads %s written by the previous instruction (commits at WB)",
				isa.SpecName(in.Func))
		}
		s.aluOut = c.special(in.Func)
	case isa.CompMots:
		if !c.psw.System() && in.Func != isa.SpecMD {
			c.privViolation(s)
			return
		}
		s.storeData = a // committed at WB
	case isa.CompTrap:
		s.excCause = isa.PSWCauseTrap
	case isa.CompJpc, isa.CompJpcrs:
		if !c.psw.System() {
			c.privViolation(s)
			return
		}
		// Jump via the PC chain and shift it down: the restart sequence's
		// three special jumps consume pc0, pc1, pc2 in order.
		redirect = true
		target = c.chain[0]
		c.chain[0], c.chain[1] = c.chain[1], c.chain[2]
		c.Stats.Jumps++
		// CompJpcrs additionally restores PSW←PSWold, committed at WB.
	}
	return redirect, target, squashEvent
}

// overflow handles an arithmetic overflow per the configured mechanism.
func (c *CPU) overflow(s *slot) {
	c.Stats.Overflows++
	if c.Cfg.StickyOverflow {
		s.stickyOvf = true
		return
	}
	if c.psw.OvfTrapEnabled() {
		s.excCause |= isa.PSWCauseOvf
	}
}

// privViolation raises the privilege trap for a system-only operation
// attempted in user mode.
func (c *CPU) privViolation(s *slot) {
	s.excCause |= isa.PSWCauseTrap
}

// accountBranch updates the Table 1 and E3 statistics when a conditional
// branch resolves. Wasted-slot accounting happens in Step once the shadow
// instructions are known.
func (c *CPU) accountBranch(pc isa.Word, in isa.Instruction, taken, squash bool) {
	// Unconditional branches (beq r0, r0) are jumps in disguise: the paper's
	// per-branch cost accounting concerns conditional branches, so they are
	// counted with the jumps. Their slot handling is unchanged.
	if in.Cond == isa.CondEq && in.Rs1 == 0 && in.Rs2 == 0 {
		c.Stats.Jumps++
		return
	}
	if c.BranchTrace != nil {
		c.BranchTrace(pc, in, taken)
	}
	c.Stats.Branches++
	if taken {
		c.Stats.TakenBranches++
	}
	if squash {
		c.Stats.SquashEvents++
		c.Stats.BranchWasted += uint64(c.Cfg.BranchSlots)
	} else {
		// Count explicit no-ops sitting in the delay slots. For the
		// two-slot machine the slots are in RF and about to be fetched;
		// Step fills in the just-fetched one via pendingSlotBranch.
		c.pendingSlotBranch = true
	}
	switch {
	case in.Rs2 == 0 && (in.Cond == isa.CondEq || in.Cond == isa.CondNe):
		c.Stats.BranchCmpZero++
		c.Stats.BranchCmpEq++
	case in.Rs2 == 0:
		c.Stats.BranchCmpZero++
		c.Stats.BranchCmpSign++
	case in.Cond == isa.CondEq || in.Cond == isa.CondNe:
		c.Stats.BranchCmpEq++
	}
}

// stageRFQuick resolves control transfers one stage early for the one-slot
// quick-compare variant: the comparator sits on the register-file output, so
// the branch redirects the fetch after a single delay slot — at the price of
// one fewer level of bypassing (see quickOperand).
func (c *CPU) stageRFQuick() (redirect bool, target isa.Word, squashEvent bool) {
	s := c.rf()
	if !s.alive() {
		return false, 0, false
	}
	in := s.in
	switch {
	case in.Class == isa.ClassBranch:
		a := c.quickOperand(in.Rs1, s.pc)
		b := c.quickOperand(in.Rs2, s.pc)
		s.taken = isa.EvalCond(in.Cond, a, b)
		redirect = s.taken
		target = s.pc + isa.Word(in.Off)
		squashEvent = in.Squash && !s.taken
		c.accountBranch(s.pc, in, s.taken, squashEvent)
	case in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci:
		redirect = true
		target = c.quickOperand(in.Rs1, s.pc) + isa.Word(in.Off)
		c.Stats.Jumps++
	}
	return redirect, target, squashEvent
}

// sampleInterrupts attaches a pending interrupt to the instruction that just
// finished ALU, unless that instruction is a squashed shadow (see package
// comment) or the pipe has no restart point yet.
func (c *CPU) sampleInterrupts() {
	if !c.NMILine && !(c.IntLine && c.psw.IntEnabled()) {
		return
	}
	s := c.alu()
	if !s.valid || s.sqNoop || s.excNoop || s.excCause != 0 {
		return
	}
	if c.NMILine {
		s.excCause |= isa.PSWCauseNMI
		c.NMILine = false
	} else {
		s.excCause |= isa.PSWCauseInt
		c.IntLine = false
	}
}

func bool2w(b bool) isa.Word {
	if b {
		return 1
	}
	return 0
}
