// Fast tier: a basic-block superoperator layer over the cycle-accurate
// pipeline. CompileFast compiles each word of the loaded image into a fast
// op (straight-line issue-block interiors plus the control transfers that
// chain blocks — the same delay-slot-aware CFG shape internal/lint/cost.go
// analyzes statically); StepFast executes runs of them without moving the
// five latch structs through the full stage machinery, then reconstructs the
// latches bit-exactly at every exit seam. Conditional branches, their delay
// slots and jspci execute inside the tier — a taken branch simply redirects
// the next fetch — so whole loop nests run as chained closures.
//
// The contract is exactness, not approximation: a run under the fast tier
// produces byte-identical Stats, attribution ledger, PC profile, icache and
// ecache state to the same run stepped one cycle at a time. That holds
// because each fast iteration replicates one Step's phase order precisely —
// WB commit (the only state-change point), MEM data access (live Ecache,
// live stall charging), ALU compute with the single MEM-stage bypass (plus
// the quick-compare RF resolution in the one-slot variant, with its one
// fewer bypass level), IF probe-with-stamp — over a ring of four in-flight
// records that mirror the lRF/lALU/lMEM/lWB latches at a known offset.
//
// The tier disengages (returning to Step) at every event whose timing the
// replicated loop does not carry: squash events (a squashing branch that
// falls through annuls its shadow — the marks and FSM walk are applied to
// the reconstructed latches and the annul cycles drain on the accurate
// pipeline), icache misses (the probe refuses without touching the miss
// FSM), exceptions (an ALU-detected cause finishes its iteration and exits
// with the faulting record in lMEM, where Step recognizes it), interrupts,
// coprocessor and FPU traffic, jpc/jpcrs and special-register writes other
// than MD, self-modifying stores landing on the word about to be fetched,
// and any observation mode that needs per-cycle events (the tracer, the
// hazard checker). Entry requires four clean latches; everything in flight
// at entry is imported into the ring and retired by the same replicated WB.
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// ProbePort is the optional InstrPort extension the fast tier needs: a pure
// window probe (how many consecutive words from a would hit, 0 meaning a
// misses) plus a bulk stamp that settles the hit accounting (fetch count +
// LRU stamps) for a validated sequential stretch in one call. Splitting
// probe from stamp lets the tier validate a whole straight-line stretch once
// and run through it with no per-fetch port traffic; the bulk stamp is exact
// because no other cache activity can interleave inside a stretch (a miss
// would have ended it). On a refused probe nothing is touched, so the caller
// can fall back to a full Fetch of the same address without double counting.
// Implemented by icache.Cache.
type ProbePort interface {
	ProbeWindow(a isa.Word) int
	StampFetches(a isa.Word, k int)
}

// Control kinds of a fast op.
const (
	ctlNone   uint8 = iota
	ctlBr           // conditional branch (may carry the squash bit)
	ctlUncond       // beq r0,r0 — a jump in disguise (counted with Jumps)
	ctlJspci        // jump indexed, save PC
)

// Compute kinds of a fast op (fastOp.kind) — the fastExec dispatch. kNone
// marks a word with no compiled op: ineligible instructions, and the
// synthesized ops of imported records (whose ALU phase already ran on the
// accurate pipeline and is never dispatched).
const (
	kNone uint8 = iota
	kLd
	kSt
	kBr
	kUncond
	kJspci
	kAddi
	kAddiu
	kLhi
	kAdd
	kSub
	kAddu
	kSubu
	kAnd
	kOr
	kXor
	kSh
	kSetGt
	kSetLt
	kSetEq
	kSetOvf
	kMstep
	kDstep
	kMovs
	kMotsMD
)

// fastOp is one compiled instruction: the operand/function fields its ALU
// phase needs (dispatched by kind through fastExec's jump table — no per-op
// closures, so no environments to load and no indirect call per instruction)
// plus the precomputed writeback plan and control metadata. ops are pure
// w.r.t. the machine they run on (all dynamic state is reached through the
// *CPU), so one FastProgram is shared by every machine running the same
// image.
type fastOp struct {
	in   isa.Instruction
	word isa.Word // raw word compiled from; revalidated on dirty fetches

	kind uint8
	ctl  uint8

	// Operand plan: source/destination register numbers, the sign-extended
	// immediate, the branch condition and the raw function field (shift
	// amount, special-register selector).
	rs1, rs2, rd isa.Reg
	cond         isa.Cond
	fn           uint16
	off          isa.Word

	memKind  uint8    // memNone / memLd / memSt: the replicated MEM phase
	squash   bool     // branch squash bit
	brTarget isa.Word // static branch target; jspci: the 2-slot return address

	// E3 compare-class increments (precomputed from accountBranch's switch).
	cmpZero, cmpEq, cmpSign bool

	// Writeback plan, read from the ring position's op at retirement.
	wbRd   isa.Reg // general register written at WB (0 = none)
	wbLoad bool    // WB writes memData instead of aluOut
	isNop  bool    // explicit no-op (Stats.Nops + ledger nop cause)
	motsMD bool    // mots to MD: WB commits storeData into the MD register
	noteBr bool    // conditional branch: WB records the outcome in the profile
	bRd    isa.Reg // bypassable result register (0 for loads and non-writers)
}

// Replicated MEM-phase kinds (fastOp.memKind).
const (
	memNone uint8 = iota
	memLd
	memSt
)

// fastRec is one in-flight instruction record, the ring's mirror of a latch.
// Everything static about the instruction lives on the op (records imported
// from the latches get a synthesized op); the record carries only the
// per-flight dynamic state, so refilling a ring slot at fetch touches five
// words instead of clearing the whole struct — this is the loop's hottest
// store sequence. The op itself is NOT stored here: the ring escapes to the
// heap (its records are passed to the compiled closures), and keeping the
// record pointer-free means no write barriers in the loop and nothing for
// the collector to scan; the loop tracks each position's op in a parallel
// stack-local array instead. Result fields (aluOut, storeData, memData,
// mdBefore, target) are deliberately NOT cleared at fetch: every reader is
// preceded by a writer on the same flight (enforced by the writeback plan: a
// field is read at WB or as a bypass only when the op's own phase wrote it).
type fastRec struct {
	pc isa.Word

	// bRd is the bypass source exposed to the next record's ALU, set once
	// this record's own ALU has run (or at import, when it already has).
	bRd isa.Reg

	aluOut    isa.Word
	storeData isa.Word
	memData   isa.Word
	mdBefore  isa.Word
	target    isa.Word // dynamic jspci target, resolved at ALU (or RF)
	taken     bool
	sqNoop    bool // squash-annulled at the exit seam (reconstruction only)
	stickyOvf bool
	excCause  isa.PSW
}

// FastProgram is a compiled image: one op per word (kind kNone for
// ineligible words). It is pure and position-indexed, so it can be compiled
// once per image and shared; a value slice keeps sequential fetches walking
// adjacent memory and gives the collector nothing to scan.
type FastProgram struct {
	base isa.Word
	ops  []fastOp
}

// FastTier binds a FastProgram to one machine's live memory: the cached page
// pointers make word revalidation (compare the compiled word against memory
// on fetch) a single array read. Revalidation itself is
// demand-driven: until a store lands inside the image span (NoteStore sets
// dirty), memory provably still equals the words the program was compiled
// from, and the per-fetch compare is skipped entirely.
type FastTier struct {
	prog   *FastProgram
	basePg isa.Word
	pages  []*[mem.PageSize]isa.Word

	lo, span isa.Word // image span, for the store-to-code filter
	dirty    bool     // a store hit the span: revalidate fetches in dLo..dHi
	dLo, dHi isa.Word // bounding range of in-span store addresses seen
}

// NoteStore records a data store's effective address; a store landing inside
// the image span switches fetches inside the written range to per-fetch word
// revalidation. The range matters: images carry their data sections, so
// ordinary data stores land "in span" constantly, and bounding them keeps
// the code-word compare off the fetch path unless a store actually reached
// the fetched address. The accurate pipeline calls this for the stores it
// executes while the tier is disengaged, so self-modification is caught no
// matter which tier ran the store.
func (t *FastTier) NoteStore(a isa.Word) {
	if a-t.lo < t.span {
		t.markDirty(a)
	}
}

func (t *FastTier) markDirty(a isa.Word) {
	if !t.dirty {
		t.dirty = true
		t.dLo, t.dHi = a, a
		return
	}
	if a < t.dLo {
		t.dLo = a
	}
	if a > t.dHi {
		t.dHi = a
	}
}

// CompileFast compiles the image words at base into per-word fast ops.
// Ineligible words (coprocessor/FPU traffic, trap, jpc/jpcrs,
// special-register writes other than MD, PC-chain reads) get no op and force
// the fast tier to exit before fetching them. Returns nil for empty images.
func CompileFast(base isa.Word, words []isa.Word) *FastProgram {
	if len(words) == 0 {
		return nil
	}
	p := &FastProgram{base: base, ops: make([]fastOp, len(words))}
	for i, w := range words {
		p.ops[i] = compileOp(isa.Decode(w), w, base+isa.Word(i))
	}
	return p
}

// Bind attaches the program to a machine's memory. Must be called after the
// image is loaded (the spanned pages must exist); returns nil otherwise.
func (p *FastProgram) Bind(m *mem.Memory) *FastTier {
	if p == nil || m == nil {
		return nil
	}
	first := p.base >> mem.PageBits
	last := (p.base + isa.Word(len(p.ops)) - 1) >> mem.PageBits
	t := &FastTier{
		prog: p, basePg: first, pages: make([]*[mem.PageSize]isa.Word, last-first+1),
		lo: p.base, span: isa.Word(len(p.ops)),
	}
	for pg := first; pg <= last; pg++ {
		mp := m.PagePtr(pg)
		if mp == nil {
			return nil
		}
		t.pages[pg-first] = mp
	}
	return t
}

// opAt returns the compiled op for word address a, or nil (outside the
// image, or an ineligible word).
func (t *FastTier) opAt(a isa.Word) *fastOp {
	if i := a - t.prog.base; i < isa.Word(len(t.prog.ops)) {
		if op := &t.prog.ops[i]; op.kind != kNone {
			return op
		}
	}
	return nil
}

// wordAt reads the live memory word at a (a must be inside the image span).
func (t *FastTier) wordAt(a isa.Word) isa.Word {
	return t.pages[(a>>mem.PageBits)-t.basePg][a&mem.PageMask]
}

// match returns the op at pc when it matches the already-decoded in-flight
// instruction (the latch's decode is authoritative for imported records).
func (t *FastTier) match(pc isa.Word, in isa.Instruction) *fastOp {
	if op := t.opAt(pc); op != nil && op.in == in {
		return op
	}
	return nil
}

// fv resolves a source register against one bypass source record: the
// register file plus src's result when src produces a bypassable value.
// For an ALU phase src is the record one ahead (in MEM — operand's single
// bypass level); for a quick-compare RF resolution src is the record two
// ahead (also the MEM position at that moment — quickOperand's only level).
// Loads expose no bypass (bRd == 0), so a use at the bypass distance reads
// the stale register value, exactly as the hardware (and operand) would.
func fv(c *CPU, src *fastRec, r isa.Reg) isa.Word {
	if r == 0 {
		return 0
	}
	if src.bRd == r {
		return src.aluOut
	}
	return c.regs[r]
}

// fastOverflow mirrors CPU.overflow for a fast record: count it, then make
// it sticky or pend the trap per the configured mechanism. Returns true when
// an exception is now pending (the caller exits after this iteration).
func (c *CPU) fastOverflow(r *fastRec) bool {
	c.Stats.Overflows++
	if c.Cfg.StickyOverflow {
		r.stickyOvf = true
		return false
	}
	if c.psw.OvfTrapEnabled() {
		r.excCause |= isa.PSWCauseOvf
		return true
	}
	return false
}

// compileOp builds the fast op for one decoded word at address pc. A
// zero-kind op marks an instruction that must run on the accurate pipeline.
func compileOp(in isa.Instruction, w isa.Word, pc isa.Word) fastOp {
	op := fastOp{
		in: in, word: w, isNop: in.IsNop(),
		rs1: in.Rs1, rs2: in.Rs2, rd: in.Rd,
		cond: in.Cond, fn: in.Func, off: isa.Word(in.Off),
	}
	if rd, ok := in.WritesReg(); ok {
		op.wbRd = rd
		op.wbLoad = in.IsLoad()
		if !op.wbLoad {
			op.bRd = rd
		}
	}

	switch in.Class {
	case isa.ClassMem:
		switch in.Mem {
		case isa.MemLd:
			op.kind, op.memKind = kLd, memLd
		case isa.MemSt:
			op.kind, op.memKind = kSt, memSt
		default: // ldf/stf/ldc/stc/cpw: FPU and coprocessor stay accurate
			return fastOp{}
		}

	case isa.ClassBranch:
		op.brTarget = pc + op.off
		op.squash = in.Squash
		if in.Cond == isa.CondEq && in.Rs1 == 0 && in.Rs2 == 0 {
			op.kind, op.ctl = kUncond, ctlUncond
			return op
		}
		op.kind, op.ctl = kBr, ctlBr
		op.noteBr = true
		// accountBranch's E3 compare classification, precomputed.
		switch {
		case in.Rs2 == 0 && (in.Cond == isa.CondEq || in.Cond == isa.CondNe):
			op.cmpZero, op.cmpEq = true, true
		case in.Rs2 == 0:
			op.cmpZero, op.cmpSign = true, true
		case in.Cond == isa.CondEq || in.Cond == isa.CondNe:
			op.cmpEq = true
		}

	case isa.ClassComputeImm:
		switch in.Imm {
		case isa.ImmAddi:
			op.kind = kAddi
		case isa.ImmAddiu:
			op.kind = kAddiu
		case isa.ImmLhi:
			op.kind = kLhi
		case isa.ImmJspci:
			op.kind, op.ctl = kJspci, ctlJspci
			// brTarget doubles as the 2-slot return address past both delay
			// slots; the 1-slot variant computes pc+2 at its ALU turn.
			op.brTarget = pc + 3
		default:
			return fastOp{}
		}

	case isa.ClassCompute:
		switch in.Comp {
		case isa.CompAdd:
			op.kind = kAdd
		case isa.CompSub:
			op.kind = kSub
		case isa.CompAddu:
			op.kind = kAddu
		case isa.CompSubu:
			op.kind = kSubu
		case isa.CompAnd:
			op.kind = kAnd
		case isa.CompOr:
			op.kind = kOr
		case isa.CompXor:
			op.kind = kXor
		case isa.CompSh:
			op.kind = kSh
		case isa.CompSetGt:
			op.kind = kSetGt
		case isa.CompSetLt:
			op.kind = kSetLt
		case isa.CompSetEq:
			op.kind = kSetEq
		case isa.CompSetOvf:
			op.kind = kSetOvf
		case isa.CompMstep:
			op.kind = kMstep
		case isa.CompDstep:
			op.kind = kDstep
		case isa.CompMovs:
			// PSW, PSWold and MD read current values; the PC-chain selectors
			// would read a chain the fast loop deliberately does not maintain
			// mid-run, so they stay on the accurate pipeline.
			switch in.Func {
			case isa.SpecPSW, isa.SpecPSWold, isa.SpecMD:
				op.kind = kMovs
			default:
				return fastOp{}
			}
		case isa.CompMots:
			// Only the MD destination: user-mode legal (no privilege trap) and
			// committed at WB by the replicated writeback. PSW/PSWold/chain
			// writes change fetch-visible state and stay accurate.
			if in.Func != isa.SpecMD {
				return fastOp{}
			}
			op.kind, op.motsMD = kMotsMD, true
		default: // trap, jpc, jpcrs
			return fastOp{}
		}

	default:
		return fastOp{}
	}
	return op
}

// importWBOK reports whether an instruction sitting in lWB can be retired by
// the replicated writeback. Everything is, except special-register writes
// other than MD (their commit touches fetch-visible state: PSW mode bits,
// the frozen PC chain). Exceptions are excluded earlier via excCause.
func importWBOK(in isa.Instruction) bool {
	if in.Class == isa.ClassCompute && in.Comp == isa.CompMots && in.Func != isa.SpecMD {
		return false
	}
	return true
}

// importMEMOK reports whether an instruction sitting in lMEM can have its
// MEM and WB phases replicated: plain loads/stores and everything with an
// empty MEM phase. FPU transfers, coprocessor traffic and jpcrs (which
// restores the PSW in MEM) stay on the accurate pipeline.
func importMEMOK(in isa.Instruction) bool {
	switch in.Class {
	case isa.ClassMem:
		return in.Mem == isa.MemLd || in.Mem == isa.MemSt
	case isa.ClassCompute:
		if in.Comp == isa.CompJpcrs {
			return false
		}
	}
	return importWBOK(in)
}

// importRec builds a ring record (and its synthesized op, holding the static
// metadata the loop reads) from a latch whose ALU — and for lWB, MEM — phase
// already ran on the accurate pipeline. The synthesized op's kind stays
// kNone: an imported record's remaining phases (MEM, WB) never dispatch it.
func importRec(r *fastRec, op *fastOp, s *slot) {
	*op = fastOp{in: s.in}
	if rd, ok := s.in.WritesReg(); ok {
		op.wbRd = rd
		op.wbLoad = s.in.IsLoad()
		if !op.wbLoad {
			op.bRd = rd
		}
	}
	op.isNop = s.in.IsNop()
	op.noteBr = s.in.Class == isa.ClassBranch &&
		!(s.in.Cond == isa.CondEq && s.in.Rs1 == 0 && s.in.Rs2 == 0)
	op.motsMD = s.in.Class == isa.ClassCompute && s.in.Comp == isa.CompMots &&
		s.in.Func == isa.SpecMD
	if s.in.Class == isa.ClassMem {
		switch s.in.Mem {
		case isa.MemLd:
			op.memKind = memLd
		case isa.MemSt:
			op.memKind = memSt
		}
	}
	*r = fastRec{
		pc: s.pc, bRd: op.bRd,
		aluOut: s.aluOut, storeData: s.storeData, memData: s.memData,
		mdBefore: s.mdBefore, taken: s.taken, stickyOvf: s.stickyOvf,
	}
}

// fetchRec fills a ring slot with a freshly fetched instruction: only the
// dynamic per-flight fields are touched (see fastRec); the op is tracked in
// the loop's parallel position array.
func fetchRec(r *fastRec, pc isa.Word) {
	r.pc = pc
	r.taken = false
	r.sqNoop = false
	r.stickyOvf = false
	r.excCause = 0
}

// latchClean reports whether a latch holds a live, exception-free
// instruction the ring can carry.
func latchClean(s *slot) bool {
	return s.valid && !s.sqNoop && !s.excNoop && s.excCause == 0
}

// StepFast is Step through the fast tier: when a compiled program is bound
// and the machine is in a steady state the tier can carry, it executes a
// straight-line run of compiled instructions and returns the cycles
// consumed; otherwise it falls through to a single accurate Step. The two
// paths are bit-exact relative to each other — see the package comment.
func (c *CPU) StepFast() int {
	if c.Fast != nil {
		if n := c.runFast(); n > 0 {
			return n
		}
	}
	return c.Step()
}

// runFast attempts one run. Returns 0 (machine untouched) when the tier
// cannot engage; otherwise the cycles consumed (>= 1 per retired instruction
// plus any data stalls, exactly as Step would have charged).
func (c *CPU) runFast() int {
	t := c.Fast
	// Cheap steady-state gates first. Every condition here marks per-cycle
	// work the loop does not replicate: squash walks in progress, pending
	// branch-slot accounting, interrupt attachment, hazard recording,
	// per-cycle trace events (an instruction-granular tracer also stamps
	// fetch cycles, so any tracer disengages the tier).
	if c.Squash.State != SqIdle || c.pendingSlotBranch || c.Cfg.CheckHazards {
		return 0
	}
	if c.NMILine || (c.IntLine && c.psw.IntEnabled()) {
		return 0
	}
	if c.Obs != nil && c.Obs.Tracer != nil {
		return 0
	}
	if c.imemProbe == nil {
		return 0
	}
	if !latchClean(&c.lWB) || !latchClean(&c.lMEM) || !latchClean(&c.lALU) || !latchClean(&c.lRF) {
		return 0
	}
	if !importWBOK(c.lWB.in) || !importMEMOK(c.lMEM.in) {
		return 0
	}
	// The two latches whose ALU (or RF) phase is still pending must have
	// compiled ops agreeing with the decoded instruction they latched.
	opALU := t.match(c.lALU.pc, c.lALU.in)
	opRF := t.match(c.lRF.pc, c.lRF.in)
	if opALU == nil || opRF == nil {
		return 0
	}
	// First-iteration fetch checks, all side-effect free: a compiled op for
	// the fetch PC, backed by an unchanged memory word, not about to be
	// overwritten by the store now in MEM, and present in the icache. Every
	// entry check (the window probe included) is pure — the first mutation
	// anywhere is the loop body itself.
	f := c.pc
	op := t.opAt(f)
	if op == nil || (t.dirty && f-t.dLo <= t.dHi-t.dLo && op.word != t.wordAt(f)) {
		return 0
	}
	if c.lMEM.in.IsStore() && c.lMEM.aluOut == f {
		return 0
	}
	// Fetch-window accounting: [winBase, winBase+winSpan) is a probed run of
	// icache-resident words within one block; pending counts committed
	// fetches that landed in it but are not yet stamped. Any fetch inside
	// the window — forward or a loop's backward jump — needs no port
	// traffic, so a loop nest resident in one window runs probe-free; the
	// stamp settles in bulk when the fetch leaves the window or the run
	// exits.
	winSpan := isa.Word(c.imemProbe.ProbeWindow(f))
	if winSpan == 0 {
		return 0
	}
	winBase, pending := f, 1

	// Import the in-flight instructions. Ring geometry: at the iteration
	// fetching address f, the ring holds f-4 (retiring at WB), f-3 (in MEM),
	// f-2 (in ALU) and f-1 (in RF) at rotating indices i, i+1, i+2, i+3.
	// (The PCs are those of the fetch order, not consecutive addresses —
	// control transfers redirect f without leaving the loop.) rops is the
	// ring's parallel op array; it stays on the stack (see fastRec).
	var ring [4]fastRec
	var impOps [2]fastOp
	var rops [4]*fastOp
	importRec(&ring[0], &impOps[0], &c.lWB)
	importRec(&ring[1], &impOps[1], &c.lMEM)
	fetchRec(&ring[2], c.lALU.pc)
	ring[2].taken = c.lALU.taken // one-slot: quick branch already resolved in RF
	fetchRec(&ring[3], c.lRF.pc)
	rops[0], rops[1], rops[2], rops[3] = &impOps[0], &impOps[1], opALU, opRF

	// Hoist every per-iteration load whose source cannot change mid-run: the
	// program table, the dirty range (updated locally by the store path), the
	// image span, the probe port and the observation hooks. Statistics
	// accumulate in locals — registers, not memory — and flush once at exit.
	slots := c.Cfg.BranchSlots
	budget := c.FastBudget
	ops, base := t.prog.ops, t.prog.base
	lo, span := t.lo, t.span
	dirty, dLo, dHi := t.dirty, t.dLo, t.dHi
	probe := c.imemProbe
	prof, trace, btrace := c.Prof, c.Trace, c.BranchTrace
	// A windowed ledger needs charges in cycle order so each lands in the
	// right window: base causes are then charged per retirement inside the
	// loop (mirroring attributeWB) instead of in bulk at exit, which would
	// smear a whole run's execute/nop cycles into the final window. Data
	// stalls already charge in order through the DMem port either way.
	var winLed *obs.Ledger
	if o := c.Obs; o != nil && o.Ledger.Windowed() {
		winLed = o.Ledger
	}
	var steps, stalls, execs, nops uint64
	var loads, stores uint64
	var branches, takenBr, jumps uint64
	var cmpZeroN, cmpEqN, cmpSignN, slotNops, wasted uint64
	// Stretches of committed fetches awaiting their bulk icache stamp, kept
	// in fetch order so every block's final LRU timestamp lands exactly where
	// the per-fetch sequence would have put it. pw{Base,Span} caches the
	// window left most recently: a loop nest straddling a block boundary
	// bounces between two windows, and the bounce-back re-enters an
	// already-validated window without re-probing.
	const maxStretch = 8
	var stBase [maxStretch]isa.Word
	var stCnt [maxStretch]int
	nst := 0
	pwBase, pwSpan := f, isa.Word(0)
	i := 0
	bail := false
	squashed := false
	for {
		// ---- WB: retire f-4 (replicates commitWB + attributeWB's base
		// cause, accumulated for one bulk ledger charge at exit).
		w := &ring[i&3]
		wop := rops[i&3]
		if wop.isNop {
			nops++
			winLed.Add(obs.CauseNop, 1) // nil-safe; nil unless windowed
		} else {
			execs++
			winLed.Add(obs.CauseExecute, 1)
		}
		if prof != nil {
			prof.NoteWB(uint32(w.pc))
			if wop.noteBr {
				prof.NoteBranch(uint32(w.pc), w.taken)
			}
		}
		if trace != nil {
			trace(w.pc, wop.in, false)
		}
		if wop.wbRd != 0 {
			v := w.aluOut
			if wop.wbLoad {
				v = w.memData
			}
			c.regs[wop.wbRd] = v
		}
		if wop.motsMD {
			c.md = w.storeData
		}
		if w.stickyOvf {
			c.psw |= isa.PSWStickyOvf
		}

		// ---- MEM: data access for f-3 (replicates stageMEM; the Ecache
		// charges its own stall causes through the shared sink).
		m := &ring[(i+1)&3]
		if k := rops[(i+1)&3].memKind; k != memNone {
			if k == memLd {
				loads++
				v, st := c.DMem.Read(m.aluOut)
				m.memData = v
				stalls += uint64(st)
			} else {
				stores++
				stalls += uint64(c.DMem.Write(m.aluOut, m.storeData))
				if m.aluOut-lo < span {
					t.markDirty(m.aluOut) // store into the image span
					dirty, dLo, dHi = true, t.dLo, t.dHi
				}
			}
		}

		// ---- ALU: compute f-2, then resolve control (two-slot machines
		// resolve branches and jspci here). Operands go through the register
		// file plus the one bypass level m exposes — the record one ahead, now
		// in MEM, operand's single bypass level. Branch kinds resolve the
		// direction into a.taken (two-slot only; the one-slot variant resolves
		// in RF below with quickOperand's one-shorter bypass). The dispatch is
		// an inline switch so the hot path pays no call.
		nextF := f + 1
		countSlots := 0
		a := &ring[(i+2)&3]
		aop := rops[(i+2)&3]
		a.mdBefore = c.md
		if slots == 2 || aop.ctl == ctlNone {
			switch aop.kind {
			case kLd:
				a.aluOut = fv(c, m, aop.rs1) + aop.off
			case kSt:
				a.aluOut = fv(c, m, aop.rs1) + aop.off
				a.storeData = fv(c, m, aop.rd)
			case kBr:
				a.taken = isa.EvalCond(aop.cond, fv(c, m, aop.rs1), fv(c, m, aop.rs2))
			case kUncond:
				a.taken = true
			case kJspci:
				a.aluOut = aop.brTarget // return address past the two delay slots
				a.target = fv(c, m, aop.rs1) + aop.off
			case kAddi:
				x := fv(c, m, aop.rs1)
				a.aluOut = x + aop.off
				if isa.AddOverflows(x, aop.off) && c.fastOverflow(a) {
					bail = true
				}
			case kAddiu:
				a.aluOut = fv(c, m, aop.rs1) + aop.off
			case kLhi:
				a.aluOut = fv(c, m, aop.rs1) + aop.off<<15
			case kAdd:
				x, y := fv(c, m, aop.rs1), fv(c, m, aop.rs2)
				a.aluOut = x + y
				if isa.AddOverflows(x, y) && c.fastOverflow(a) {
					bail = true
				}
			case kSub:
				x, y := fv(c, m, aop.rs1), fv(c, m, aop.rs2)
				a.aluOut = x - y
				if isa.SubOverflows(x, y) && c.fastOverflow(a) {
					bail = true
				}
			case kAddu:
				a.aluOut = fv(c, m, aop.rs1) + fv(c, m, aop.rs2)
			case kSubu:
				a.aluOut = fv(c, m, aop.rs1) - fv(c, m, aop.rs2)
			case kAnd:
				a.aluOut = fv(c, m, aop.rs1) & fv(c, m, aop.rs2)
			case kOr:
				a.aluOut = fv(c, m, aop.rs1) | fv(c, m, aop.rs2)
			case kXor:
				a.aluOut = fv(c, m, aop.rs1) ^ fv(c, m, aop.rs2)
			case kSh:
				a.aluOut = isa.FunnelShift(fv(c, m, aop.rs1), fv(c, m, aop.rs2), uint(aop.fn&31))
			case kSetGt:
				a.aluOut = bool2w(int32(fv(c, m, aop.rs1)) > int32(fv(c, m, aop.rs2)))
			case kSetLt:
				a.aluOut = bool2w(int32(fv(c, m, aop.rs1)) < int32(fv(c, m, aop.rs2)))
			case kSetEq:
				a.aluOut = bool2w(fv(c, m, aop.rs1) == fv(c, m, aop.rs2))
			case kSetOvf:
				x, y := fv(c, m, aop.rs1), fv(c, m, aop.rs2)
				sum := x + y
				if isa.AddOverflows(x, y) {
					sum |= 1 << 31
					c.Stats.Overflows++
				} else {
					sum &^= 1 << 31
				}
				a.aluOut = sum
			case kMstep:
				acc, y := fv(c, m, aop.rs1), fv(c, m, aop.rs2)
				var carry isa.Word
				if c.md&1 != 0 {
					s64 := uint64(acc) + uint64(y)
					acc = isa.Word(s64)
					carry = isa.Word(s64 >> 32)
				}
				c.md = c.md>>1 | acc<<31
				a.aluOut = acc>>1 | carry<<31
			case kDstep:
				x, y := fv(c, m, aop.rs1), fv(c, m, aop.rs2)
				rem := x<<1 | c.md>>31
				c.md <<= 1
				if rem >= y && y != 0 {
					rem -= y
					c.md |= 1
				}
				a.aluOut = rem
			case kMovs:
				a.aluOut = c.special(aop.fn)
			case kMotsMD:
				a.storeData = fv(c, m, aop.rs1)
			}
		} else if aop.ctl == ctlJspci {
			a.aluOut = a.pc + 2 // one-slot return address; redirect ran in RF
		}
		a.bRd = aop.bRd
		if slots == 2 && aop.ctl != ctlNone {
			switch aop.ctl {
			case ctlUncond:
				jumps++
				nextF = aop.brTarget
			case ctlJspci:
				jumps++
				nextF = a.target
			default: // ctlBr — replicates accountBranch
				if btrace != nil {
					btrace(a.pc, aop.in, a.taken)
				}
				branches++
				if a.taken {
					takenBr++
					nextF = aop.brTarget
				}
				if aop.cmpZero {
					cmpZeroN++
				}
				if aop.cmpEq {
					cmpEqN++
				}
				if aop.cmpSign {
					cmpSignN++
				}
				if aop.squash && !a.taken {
					c.Stats.SquashEvents++
					wasted += 2
					squashed = true
				} else {
					countSlots = 2
				}
			}
		}

		// ---- RF: quick-compare resolution for the one-slot variant
		// (replicates stageRFQuick, which runs after the ALU stage). The
		// bypass source is m — the record two ahead, in MEM at this moment —
		// quickOperand's only bypass level, one fewer than the ALU sees.
		if slots == 1 {
			r := &ring[(i+3)&3]
			if rop := rops[(i+3)&3]; rop.ctl != ctlNone {
				switch rop.ctl {
				case ctlUncond:
					r.taken = true
					jumps++
					nextF = rop.brTarget
				case ctlJspci:
					r.target = fv(c, m, rop.rs1) + rop.off
					jumps++
					nextF = r.target
				default:
					r.taken = isa.EvalCond(rop.cond, fv(c, m, rop.rs1), fv(c, m, rop.rs2))
					if btrace != nil {
						btrace(r.pc, rop.in, r.taken)
					}
					branches++
					if r.taken {
						takenBr++
						nextF = rop.brTarget
					}
					if rop.cmpZero {
						cmpZeroN++
					}
					if rop.cmpEq {
						cmpEqN++
					}
					if rop.cmpSign {
						cmpSignN++
					}
					if rop.squash && !r.taken {
						c.Stats.SquashEvents++
						wasted += 1
						squashed = true
					} else {
						countSlots = 1
					}
				}
			}
		}

		// ---- IF: the retired slot is reused for the fetched instruction.
		fetchRec(w, f)
		rops[i&3] = op

		// ---- Delay-slot bookkeeping after the fetch, exactly as Step does:
		// a branch that resolved without squashing wastes the explicit
		// no-ops in its shadow; a squashing fall-through marks the shadow
		// instructions for annulment (and exits — the annul cycles drain on
		// the accurate pipeline).
		if countSlots > 0 {
			if countSlots == 2 && rops[(i+3)&3].isNop {
				slotNops++
				wasted++
			}
			if op.isNop {
				slotNops++
				wasted++
			}
		}
		if squashed {
			if slots == 2 {
				ring[(i+3)&3].sqNoop = true
			}
			w.sqNoop = true
		}

		steps++
		i++
		f = nextF

		if bail || squashed {
			break
		}
		if budget != 0 && steps+stalls >= budget {
			break
		}
		// Pre-checks for the next iteration; any refusal exits at this
		// Step boundary with no side effects.
		j := f - base
		if j >= isa.Word(len(ops)) {
			break
		}
		op = &ops[j]
		if op.kind == kNone || (dirty && f-dLo <= dHi-dLo && op.word != t.wordAt(f)) {
			break
		}
		m = &ring[(i+1)&3]
		if rops[(i+1)&3].memKind == memSt && m.aluOut == f {
			break
		}
		if f-winBase < winSpan {
			// Inside the validated window (forward or backward): no port
			// traffic at all.
			pending++
		} else {
			// Left the window: queue the finished stretch for its ordered
			// bulk stamp, then re-enter the cached previous window if the
			// fetch bounced back into it, else validate a new window from f.
			stBase[nst], stCnt[nst] = winBase, pending
			if nst++; nst == maxStretch {
				for k := 0; k < maxStretch; k++ {
					probe.StampFetches(stBase[k], stCnt[k])
				}
				nst = 0
			}
			if f-pwBase < pwSpan {
				winBase, winSpan, pwBase, pwSpan = pwBase, pwSpan, winBase, winSpan
				pending = 1
			} else {
				n := isa.Word(probe.ProbeWindow(f))
				if n == 0 {
					pending = 0
					break
				}
				pwBase, pwSpan = winBase, winSpan
				winBase, winSpan, pending = f, n, 1
			}
		}
	}
	// Settle the queued stretches and the still-open one, in fetch order.
	if pending > 0 {
		stBase[nst], stCnt[nst] = winBase, pending
		nst++
	}
	for k := 0; k < nst; k++ {
		probe.StampFetches(stBase[k], stCnt[k])
	}

	// ---- Exit: reconstruct the latches at the Step boundary after the last
	// completed iteration: lWB holds the oldest in-flight record
	// (uncommitted), lMEM the one past ALU, lALU the one whose ALU is still
	// pending (carrying only what RF could have given it: a quick-compare
	// outcome, a squash mark), lRF the just-fetched one.
	aRec := &ring[(i+2)&3]
	rRec := &ring[(i+3)&3]
	c.lWB = slotFrom(&ring[i&3], rops[i&3])
	c.lMEM = slotFrom(&ring[(i+1)&3], rops[(i+1)&3])
	c.lALU = slot{valid: true, pc: aRec.pc, in: rops[(i+2)&3].in, taken: aRec.taken, sqNoop: aRec.sqNoop}
	c.lRF = slot{valid: true, pc: rRec.pc, in: rops[(i+3)&3].in, sqNoop: rRec.sqNoop}
	c.pc = f
	if c.psw.ShiftEnabled() {
		c.chain = [3]isa.Word{c.lMEM.pc, c.lALU.pc, c.lRF.pc}
	}
	if squashed {
		// The squash FSM walk the resolving Step would have started (and
		// ticked once, as Step ticks at its end).
		c.Squash.Trigger(CauseBranch, slots)
		c.Squash.Tick()
	}

	// Flush the register-resident statistics. Every stall the loop charged is
	// a data stall (the Dcache/Ecache port is the only stall source in-tier),
	// so the accumulator serves both counters.
	c.FastSteps += steps
	c.FastRuns++
	c.Stats.Cycles += steps + stalls
	c.Stats.Fetches += steps
	c.Stats.Retired += steps
	c.Stats.Nops += nops
	c.Stats.Loads += loads
	c.Stats.Stores += stores
	c.Stats.DataStalls += stalls
	c.Stats.Branches += branches
	c.Stats.TakenBranches += takenBr
	c.Stats.Jumps += jumps
	c.Stats.BranchCmpZero += cmpZeroN
	c.Stats.BranchCmpEq += cmpEqN
	c.Stats.BranchCmpSign += cmpSignN
	c.Stats.BranchSlotNops += slotNops
	c.Stats.BranchWasted += wasted
	if o := c.Obs; o != nil && winLed == nil {
		o.Ledger.Add(obs.CauseExecute, execs)
		o.Ledger.Add(obs.CauseNop, nops)
	}
	return int(steps + stalls)
}

// slotFrom rebuilds a pipeline latch from a ring record. Result fields the
// record's op never wrote may carry values from an earlier occupant of the
// ring slot where the accurate latch would hold zero; they are exactly the
// fields nothing downstream reads (the writeback plan gates every reader),
// so the reconstruction is observationally exact.
func slotFrom(r *fastRec, op *fastOp) slot {
	return slot{
		valid: true, pc: r.pc, in: op.in,
		aluOut: r.aluOut, storeData: r.storeData, memData: r.memData,
		mdBefore: r.mdBefore, taken: r.taken, stickyOvf: r.stickyOvf,
		excCause: r.excCause,
	}
}
