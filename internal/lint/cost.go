package lint

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/jsondoc"
	"repro/internal/obs"
)

// Static cycle-cost model. The hazard checker's delay-slot-aware graph is
// reused to partition the instruction stream into issue blocks: maximal
// straight-line runs that the fetch stream consumes in one piece. A block
// ends where issue can leave the line — at the last delay slot of a control
// transfer — or where the line itself ends (a label that makes the next
// instruction a join point, a data word, the image end, a halt).
//
// Each block is costed in base cycles per entry, under the same perfect
// conditions the ledger's base causes describe (stall causes are charged
// separately by the memory system): every issued instruction retires one
// base cycle, classified execute or explicit-nop, except that the delay
// slots of a squashing conditional branch retire as squash-annul on the
// branch's not-taken entries. Rolling the per-block costs up with a
// measured block-count profile therefore predicts the ledger's
// execute/nop/squash-annul counters — and the prediction is exact, which
// the experiment engine and a CI gate verify for every benchmark × Table 1
// scheme (see internal/experiments).
//
// Exactness has a precisely delimited scope, mirroring how PR 1 scoped the
// hazard rules: a handful of constructs step outside the per-block
// uniformity the roll-up relies on, and AnalyzeCost flags them in
// CostReport.Unmodeled instead of producing silently-wrong numbers. They
// are: a squashing branch whose delay window is split by a label,
// re-anchored by another transfer, or truncated by data/image end (the
// annul correction then spans two blocks), a halt inside any delay
// window (the window's tail is still in flight when the machine stops, so
// its final passes never reach WB), and a console operation whose command
// comes from a register (it may halt mid-block). Exception entry is
// dynamic, not static: callers skip the exact comparison when a run took
// exceptions.

// CostSchema versions CostReport JSON output.
const CostSchema = "mipsx-lint-cost/v1"

// BranchCost describes the squash-annul exposure of the block's closing
// squashing conditional branch: on each not-taken execution its Slots delay
// slots retire as squash-annul instead of their execute/nop shares.
type BranchCost struct {
	PC    isa.Word `json:"pc"`
	Slots int      `json:"slots"`
	// SlotExec and SlotNops split the annullable slots by what they retire
	// as on taken entries (SlotExec + SlotNops == Slots).
	SlotExec int `json:"slot_exec"`
	SlotNops int `json:"slot_nops"`
}

// BlockCost is the static per-entry cost of one issue block.
type BlockCost struct {
	Start isa.Word `json:"start"`
	Label string   `json:"label,omitempty"`
	// Len is the issue cost: base cycles consumed per entry with a perfect
	// Icache (Len == Exec + Nops). A halt block counts only the
	// instructions ahead of the halt — the halt and everything behind it
	// are still in flight when the machine stops and never retire.
	Len  int `json:"len"`
	Exec int `json:"exec"`
	Nops int `json:"nops"`
	// CoprocOps counts coprocessor transfers (ldc/stc/cpw): each is a
	// potential busy-wait stall site on top of its base cycle.
	CoprocOps int         `json:"coproc_ops,omitempty"`
	Halt      bool        `json:"halt,omitempty"`
	Branch    *BranchCost `json:"branch,omitempty"`
	Succs     []isa.Word  `json:"succs,omitempty"`
}

// CostReport is the static timing analysis of one image under one machine
// configuration.
type CostReport struct {
	Schema string      `json:"schema"`
	Slots  int         `json:"slots"`
	Base   isa.Word    `json:"base"`
	Entry  isa.Word    `json:"entry"`
	Blocks []BlockCost `json:"blocks"`
	// Unmodeled lists the constructs (if any) that put the program outside
	// the exact model's scope; when non-empty, Predict is an estimate.
	Unmodeled []string `json:"unmodeled,omitempty"`
	// Prediction is filled by callers that rolled the report up with a
	// measured profile (mipsx-lint -cost -json -profile), so the JSON output
	// carries the whole-program numbers next to the per-block model.
	Prediction *Prediction `json:"prediction,omitempty"`
}

// Exact reports whether the program is fully inside the exact model's
// scope, i.e. Predict with measured counts must equal the ledger.
func (r *CostReport) Exact() bool { return len(r.Unmodeled) == 0 }

// JSON renders the report with its schema tag (jsondoc.Marshal: indented,
// newline-terminated).
func (r *CostReport) JSON() ([]byte, error) {
	return jsondoc.Marshal(r)
}

// Prediction is a whole-program base-cycle prediction: the ledger's
// execute, nop and squash-annul counters as the static model expects them.
// Fields are signed so a model/pipeline disagreement shows up as an honest
// negative number rather than a uint wraparound.
type Prediction struct {
	Execute     int64 `json:"execute"`
	Nops        int64 `json:"nops"`
	SquashAnnul int64 `json:"squash_annul"`
}

// Base is the predicted base-cycle total attributable to issued
// instructions (the whole ledger minus pipe-fill, exception-kill and
// stalls).
func (p Prediction) Base() int64 { return p.Execute + p.Nops + p.SquashAnnul }

// Predict rolls the per-block costs up with a measured profile: n(B) is
// the writeback count of B's leader, nt(br) the not-taken retirements of
// each squashing branch. For fully modeled programs run to a halt without
// exceptions, the result equals the attribution ledger exactly.
func (r *CostReport) Predict(prof *obs.PCProfile) Prediction {
	var p Prediction
	for i := range r.Blocks {
		b := &r.Blocks[i]
		n := int64(prof.WBCount(uint32(b.Start)))
		if n == 0 {
			continue
		}
		p.Execute += n * int64(b.Exec)
		p.Nops += n * int64(b.Nops)
		if b.Branch != nil {
			_, nt := prof.BranchCounts(uint32(b.Branch.PC))
			p.SquashAnnul += int64(nt) * int64(b.Branch.Slots)
			p.Execute -= int64(nt) * int64(b.Branch.SlotExec)
			p.Nops -= int64(nt) * int64(b.Branch.SlotNops)
		}
	}
	return p
}

// CrossCheck validates the static cost model against a run of im on a
// slots-slot machine: fed with the run's PC profile, Predict must equal the
// ledger's execute, nop and squash-annul counts exactly. Any drift means
// either the static model or the pipeline is wrong. A run that took
// exceptions, or an image using constructs the model flags as unmodeled,
// is outside the exact scope and passes.
func CrossCheck(im *asm.Image, slots int, prof *obs.PCProfile, led *obs.Ledger, exceptions uint64) error {
	if exceptions > 0 {
		return nil
	}
	rep := AnalyzeCost(im, Config{Slots: slots})
	if !rep.Exact() {
		return nil
	}
	p := rep.Predict(prof)
	exec, nop, sq := led.Count(obs.CauseExecute), led.Count(obs.CauseNop), led.Count(obs.CauseSquashAnnul)
	if p.Execute != int64(exec) || p.Nops != int64(nop) || p.SquashAnnul != int64(sq) {
		return fmt.Errorf("static cost model disagrees with ledger: predicted execute/nop/squash-annul %d/%d/%d, measured %d/%d/%d",
			p.Execute, p.Nops, p.SquashAnnul, exec, nop, sq)
	}
	return nil
}

// Render formats the report as a table; with a profile it adds measured
// entry counts and the rolled-up prediction. String() is Render(nil).
func (r *CostReport) Render(prof *obs.PCProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d blocks, %d-slot machine, entry %#06x\n", len(r.Blocks), r.Slots, r.Entry)
	for i := range r.Blocks {
		bl := &r.Blocks[i]
		loc := fmt.Sprintf("%#06x", uint32(bl.Start))
		if bl.Label != "" {
			loc += " (" + bl.Label + ")"
		}
		fmt.Fprintf(&b, "  %-30s len %-4d exec %-4d nop %-3d", loc, bl.Len, bl.Exec, bl.Nops)
		if bl.Branch != nil {
			fmt.Fprintf(&b, " squash-br %#06x (-%d/nt)", uint32(bl.Branch.PC), bl.Branch.Slots)
		}
		if bl.Halt {
			b.WriteString(" halt")
		}
		if prof != nil {
			fmt.Fprintf(&b, "  x%d", prof.WBCount(uint32(bl.Start)))
		}
		b.WriteByte('\n')
	}
	for _, u := range r.Unmodeled {
		fmt.Fprintf(&b, "  unmodeled: %s\n", u)
	}
	if prof != nil {
		p := r.Predict(prof)
		fmt.Fprintf(&b, "predicted base cycles: execute %d + nop %d + squash-annul %d = %d\n",
			p.Execute, p.Nops, p.SquashAnnul, p.Base())
	}
	return b.String()
}

func (r *CostReport) String() string { return r.Render(nil) }

// AnalyzeCost builds the static cycle-cost model of an assembled image.
func AnalyzeCost(im *asm.Image, cfg Config) *CostReport {
	c := newChecker(im, cfg)
	blocks := c.blocks()
	r := &CostReport{
		Schema:    CostSchema,
		Slots:     c.cfg.Slots,
		Base:      c.base,
		Entry:     c.pcOf(c.entry),
		Blocks:    make([]BlockCost, 0, len(blocks)),
		Unmodeled: c.unmod,
	}
	for _, b := range blocks {
		r.Blocks = append(r.Blocks, c.costBlock(b))
	}
	return r
}

// ---------------------------------------------------------------------------
// Block construction, shared by AnalyzeCost and the scheduling-quality
// rules. Computed once per checker.

// blockInfo is the internal form of one issue block.
type blockInfo struct {
	lo, hi int
	xfer   int // transfer whose window closes at hi, or -1
	halt   int // index of a halt in [lo, hi], or -1
	succs  []int
}

// windowEnd reports whether i is the last delay slot of a transfer's
// window (the point where issue leaves the line).
func (c *checker) windowEnd(i int) bool {
	t := c.owner[i]
	return t >= 0 && i == t+c.cfg.Slots
}

// isHaltInstr statically recognizes a halt: a coprocessor operation (the
// assembler's cpw idiom, or an ldc or stc) to the system coprocessor
// carrying the halt command with no register base, so the address pins are
// known at assembly time.
func isHaltInstr(in isa.Instruction) bool {
	return in.IsCoproc() && in.Rs1 == 0 &&
		in.CoprocNum() == asm.SysCoproc && uint16(in.Off)&0x3FFF == asm.CmdHalt
}

// blocks partitions the instruction stream into issue blocks and collects
// the unmodeled-construct list. Leaders are the entry point, the first
// instruction after any data run, every issue successor of a window end,
// and the instruction following a window end (the line restarts there even
// when issue never falls through).
func (c *checker) blocks() []blockInfo {
	if c.blk != nil || c.blkBuilt {
		return c.blk
	}
	c.blkBuilt = true
	n := len(c.ins)
	c.lead = make([]bool, n)
	mark := func(i int) {
		if i >= 0 && i < n && c.isIn[i] {
			c.lead[i] = true
		}
	}
	mark(c.entry)
	for i := 0; i < n; i++ {
		if !c.isIn[i] {
			continue
		}
		if i == 0 || !c.isIn[i-1] {
			c.lead[i] = true
		}
		if c.windowEnd(i) {
			for _, s := range c.succ[i] {
				mark(s)
			}
			mark(i + 1)
		}
	}

	for lo := 0; lo < n; lo++ {
		if !c.isIn[lo] || !c.lead[lo] {
			continue
		}
		b := blockInfo{lo: lo, xfer: -1, halt: -1}
		i := lo
		for {
			if b.halt < 0 && isHaltInstr(c.ins[i]) {
				b.halt = i
			}
			if c.windowEnd(i) {
				b.hi, b.xfer = i, c.owner[i]
				b.succs = append([]int(nil), c.succ[i]...)
				break
			}
			if i+1 >= n || !c.isIn[i+1] {
				b.hi = i
				break
			}
			if c.lead[i+1] {
				b.hi = i
				b.succs = []int{i + 1}
				break
			}
			i++
		}
		if b.halt >= 0 {
			b.succs = nil
		}
		c.blk = append(c.blk, b)
	}
	c.findUnmodeled()
	return c.blk
}

// findUnmodeled flags the constructs outside the exact model's scope.
func (c *checker) findUnmodeled() {
	for t := range c.ins {
		if !c.isIn[t] {
			continue
		}
		in := c.ins[t]
		if isHaltInstr(in) && c.owner[t] >= 0 {
			c.unmod = append(c.unmod, fmt.Sprintf(
				"halt at pc %#06x sits in a delay window: the window's tail never retires", uint32(c.pcOf(t))))
		}
		if in.IsCoproc() && in.CoprocNum() == asm.SysCoproc && in.Rs1 != 0 {
			c.unmod = append(c.unmod, fmt.Sprintf(
				"console operation at pc %#06x takes its command from a register: it may halt", uint32(c.pcOf(t))))
		}
		if !in.IsBranch() || !in.Squash || isUncondBranch(in) {
			continue
		}
		for j := t + 1; j <= t+c.cfg.Slots; j++ {
			switch {
			case j >= len(c.ins) || !c.isIn[j]:
				c.unmod = append(c.unmod, fmt.Sprintf(
					"squashing branch at pc %#06x: delay window truncated by data or image end", uint32(c.pcOf(t))))
			case c.owner[j] != t:
				c.unmod = append(c.unmod, fmt.Sprintf(
					"squashing branch at pc %#06x: delay window re-anchored by another transfer", uint32(c.pcOf(t))))
			case c.lead[j]:
				c.unmod = append(c.unmod, fmt.Sprintf(
					"squashing branch at pc %#06x: delay window split by a join point at pc %#06x",
					uint32(c.pcOf(t)), uint32(c.pcOf(j))))
			default:
				continue
			}
			break
		}
	}
}

// costBlock turns a blockInfo into its public cost form.
func (c *checker) costBlock(b blockInfo) BlockCost {
	bc := BlockCost{
		Start: c.pcOf(b.lo),
		Label: c.labelFor(c.pcOf(b.lo)),
		Halt:  b.halt >= 0,
	}
	stop := b.hi
	if b.halt >= 0 {
		stop = b.halt - 1 // the halt never reaches WB
	}
	for j := b.lo; j <= stop; j++ {
		bc.Len++
		if c.ins[j].IsNop() {
			bc.Nops++
		} else {
			bc.Exec++
		}
		if in := c.ins[j]; in.Class == isa.ClassMem &&
			(in.Mem == isa.MemLdc || in.Mem == isa.MemStc || in.Mem == isa.MemCpw) {
			bc.CoprocOps++
		}
	}
	if t := b.xfer; t >= b.lo {
		tin := c.ins[t]
		if tin.IsBranch() && tin.Squash && !isUncondBranch(tin) {
			br := &BranchCost{PC: c.pcOf(t), Slots: c.cfg.Slots}
			for j := t + 1; j <= b.hi; j++ {
				if c.ins[j].IsNop() {
					br.SlotNops++
				} else {
					br.SlotExec++
				}
			}
			bc.Branch = br
		}
	}
	for _, s := range b.succs {
		bc.Succs = append(bc.Succs, c.pcOf(s))
	}
	return bc
}

// ---------------------------------------------------------------------------
// Scheduling-quality rules (warning severity), run on the same blocks.

// checkSchedulingQuality emits the warning-severity findings that ride on
// the cost model's block structure: wasted delay slots and dead blocks.
func (c *checker) checkSchedulingQuality() {
	c.blocks()
	c.checkSlotQuality()
	c.checkUnreachable()
}

// checkSlotQuality inspects every transfer's delay slots. An explicit
// no-op in the annullable window of a squashing branch wastes the squash
// mechanism itself (the slot does nothing on the taken path and is
// annulled on the fall-through); a no-op in a slot that executes
// unconditionally is reported only when a provably movable instruction
// sits above it in the same block.
func (c *checker) checkSlotQuality() {
	for t := range c.ins {
		if !c.isIn[t] || !isXfer(c.ins[t]) || isChainJump(c.ins[t]) || c.owner[t] >= 0 {
			continue
		}
		in := c.ins[t]
		squashing := in.IsBranch() && in.Squash && !isUncondBranch(in)
		for j := t + 1; j <= t+c.cfg.Slots && j < len(c.ins); j++ {
			if !c.isIn[j] || c.owner[j] != t {
				break
			}
			if !c.ins[j].IsNop() {
				continue
			}
			if squashing {
				c.report(RuleSquashSlotNop, j,
					"no-op in the annullable slot of the %s at pc %#06x: wasted on both paths (a target-path instruction could fill it)",
					mnemonic(in), uint32(c.pcOf(t)))
			} else if x, ok := c.fillCandidate(t, j); ok {
				c.report(RuleSlotUnfilled, j,
					"unfilled delay slot of the %s at pc %#06x: the %s at pc %#06x could move here",
					mnemonic(in), uint32(c.pcOf(t)), mnemonic(c.ins[x]), uint32(c.pcOf(x)))
			}
		}
	}
}

// movableIntoSlot restricts fill candidates to plain one-cycle ALU
// operations: no memory traffic, no special-register timing, no transfers
// — the moves whose legality the dependence check below fully decides.
func movableIntoSlot(in isa.Instruction) bool {
	if in.IsNop() {
		return false
	}
	switch in.Class {
	case isa.ClassCompute:
		switch in.Comp {
		case isa.CompAdd, isa.CompSub, isa.CompAddu, isa.CompSubu,
			isa.CompAnd, isa.CompOr, isa.CompXor, isa.CompSh,
			isa.CompSetGt, isa.CompSetLt, isa.CompSetEq:
			return true
		}
	case isa.ClassComputeImm:
		switch in.Imm {
		case isa.ImmAddi, isa.ImmAddiu, isa.ImmLhi:
			return true
		}
	}
	return false
}

// fillCandidate searches the straight-line run above transfer t (not
// crossing a join point, a delay window, or data) for an instruction that
// could legally move into the no-op slot at dest: no RAW/WAR/WAW conflict
// with anything it would cross, and — on the 1-slot machine — no
// quick-compare consumer left at distance 1 from the slot.
func (c *checker) fillCandidate(t, dest int) (int, bool) {
	for x := t - 1; x >= 0; x-- {
		if !c.isIn[x] || c.owner[x] >= 0 {
			return 0, false
		}
		if c.candidateFills(x, dest) {
			return x, true
		}
		if c.lead[x] {
			return 0, false // join point: paths entering here must not gain x
		}
	}
	return 0, false
}

func (c *checker) candidateFills(x, dest int) bool {
	xin := c.ins[x]
	if !movableIntoSlot(xin) {
		return false
	}
	rd, _ := xin.WritesReg()
	for y := x + 1; y < dest; y++ {
		yin := c.ins[y]
		if yin.IsNop() {
			continue
		}
		if rd != 0 && readsReg(yin, rd) {
			return false // RAW: a crossed instruction consumes x's result
		}
		if wy, ok := yin.WritesReg(); ok && wy != 0 {
			if wy == rd {
				return false // WAW: final value of rd would flip
			}
			if readsReg(xin, wy) {
				return false // WAR: x would read the clobbered value
			}
		}
	}
	if c.cfg.Slots == 1 && rd != 0 {
		// The slot is the window end; a quick-resolving consumer one issue
		// later would now see x at distance 1, one short of its bypass need.
		for _, s := range c.succ[dest] {
			if isQuickConsumer(c.ins[s]) && readsReg(c.ins[s], rd) {
				return false
			}
		}
	}
	return true
}

// checkUnreachable reports blocks no path from the entry reaches.
// Conservative roots: the entry block, plus every block that follows a
// statically-unresolvable transfer window (jspci call/return continuations
// and PC-chain jumps — paths the graph cannot follow). A warning therefore
// means genuinely dead code under this image's static call structure.
func (c *checker) checkUnreachable() {
	blocks := c.blk
	idx := make(map[int]int, len(blocks))
	for bi := range blocks {
		idx[blocks[bi].lo] = bi
	}
	reach := make([]bool, len(blocks))
	var queue []int
	push := func(lo int) {
		if bi, ok := idx[lo]; ok && !reach[bi] {
			reach[bi] = true
			queue = append(queue, bi)
		}
	}
	push(c.entry)
	for i := range c.ins {
		if !c.isIn[i] || !c.windowEnd(i) {
			continue
		}
		if !c.ins[c.owner[i]].IsBranch() {
			push(i + 1) // continuation after a jump window: reachable via return
		}
	}
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		for _, s := range blocks[bi].succs {
			push(s)
		}
	}
	for bi := range blocks {
		if !reach[bi] {
			c.report(RuleUnreachable, blocks[bi].lo,
				"no path from the entry reaches this block (dead code)")
		}
	}
}
