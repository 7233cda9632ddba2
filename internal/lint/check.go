package lint

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
)

// checker holds the decoded program and its delay-slot-aware successor
// graph. Indices are word offsets from the image base; only instruction
// words participate (data words end every path into them).
type checker struct {
	cfg   Config
	base  isa.Word
	isIn  []bool
	lines []int
	ins   []isa.Instruction

	// owner[i] is the index of the transfer whose delay window covers i, or
	// -1. A transfer inside another's window re-anchors the window, matching
	// what the fetch stream does.
	owner []int
	// succ[i] are the instructions that can issue immediately after i, on
	// any path.
	succ [][]int

	symAddrs []isa.Word // sorted label addresses, for diagnostic labeling
	symNames map[isa.Word]string

	// entry is the instruction index execution starts at: the "main" symbol
	// when the image defines one (matching core.Machine.Load), else 0.
	entry int

	// Issue-block decomposition (see cost.go), built on first use.
	blkBuilt bool
	blk      []blockInfo
	lead     []bool
	unmod    []string

	diags []Diagnostic
}

func newChecker(im *asm.Image, cfg Config) *checker {
	if cfg.Slots != 1 && cfg.Slots != 2 {
		cfg.Slots = 2
	}
	n := len(im.Words)
	c := &checker{
		cfg:      cfg,
		base:     im.Base,
		isIn:     make([]bool, n),
		lines:    make([]int, n),
		ins:      make([]isa.Instruction, n),
		owner:    make([]int, n),
		succ:     make([][]int, n),
		symNames: make(map[isa.Word]string),
	}
	for i, w := range im.Words {
		// Images built by Assemble always carry IsInstr/Lines; tolerate
		// hand-built ones that leave them nil (treat every word as code).
		c.isIn[i] = im.IsInstr == nil || im.IsInstr[i]
		if im.Lines != nil {
			c.lines[i] = im.Lines[i]
		}
		if c.isIn[i] {
			c.ins[i] = isa.Decode(w)
		}
	}
	for name, a := range im.Symbols {
		if prev, ok := c.symNames[a]; !ok || name < prev {
			c.symNames[a] = name
		}
	}
	for a := range c.symNames {
		c.symAddrs = append(c.symAddrs, a)
	}
	sort.Slice(c.symAddrs, func(i, j int) bool { return c.symAddrs[i] < c.symAddrs[j] })
	if a, ok := im.Symbols["main"]; ok {
		if i := int(int64(a) - int64(im.Base)); i >= 0 && i < n && c.isIn[i] {
			c.entry = i
		}
	}
	c.buildGraph()
	return c
}

// isXfer reports a control transfer: conditional branch, jspci, or a
// PC-chain jump.
func isXfer(in isa.Instruction) bool { return in.IsBranch() || in.IsJump() }

// isChainJump reports jpc/jpcrs, the exception-restart jumps.
func isChainJump(in isa.Instruction) bool {
	return in.Class == isa.ClassCompute && (in.Comp == isa.CompJpc || in.Comp == isa.CompJpcrs)
}

// isUncondBranch reports the assembler's unconditional branch idiom
// (beq r0, r0), which has no fall-through path.
func isUncondBranch(in isa.Instruction) bool {
	return in.IsBranch() && in.Cond == isa.CondEq && in.Rs1 == 0 && in.Rs2 == 0
}

// buildGraph assigns delay windows and issue successors.
func (c *checker) buildGraph() {
	n := len(c.ins)
	lastX := -1
	for i := 0; i < n; i++ {
		c.owner[i] = -1
		if !c.isIn[i] {
			lastX = -1 // data breaks any open delay window
			continue
		}
		if lastX >= 0 && i <= lastX+c.cfg.Slots {
			c.owner[i] = lastX
		}
		if isXfer(c.ins[i]) {
			lastX = i
		}
	}
	add := func(i, j int) {
		if j >= 0 && j < n && c.isIn[j] {
			c.succ[i] = append(c.succ[i], j)
		}
	}
	// join marks the instructions issue can enter other than linearly: the
	// entry and every static target.
	join := make([]bool, n)
	if c.entry < n {
		join[c.entry] = true
	}
	for t := range c.ins {
		if tgt, ok := c.takenTarget(t); ok && c.isIn[t] && tgt >= 0 && tgt < n {
			join[tgt] = true
		}
	}
	for i := 0; i < n; i++ {
		if !c.isIn[i] {
			continue
		}
		t := c.owner[i]
		if t < 0 || i != t+c.cfg.Slots {
			// Not the last delay slot of any transfer: issue continues
			// linearly (a transfer's own slots begin at i+1).
			add(i, i+1)
			continue
		}
		// Last slot of t's window: issue continues at the target when the
		// transfer goes, at i+1 when a conditional branch falls through.
		// Squashed slots still occupy issue positions, so the fall-through
		// edge exists for squashing branches too. A slot that is also a
		// join point is issued outside the window as well, and from there
		// issue runs on past the window end.
		tin := c.ins[t]
		if tgt, ok := c.takenTarget(t); ok {
			add(i, tgt)
		}
		entered := false
		for j := t + 1; j <= i; j++ {
			entered = entered || join[j]
		}
		if tin.IsBranch() && !isUncondBranch(tin) || entered {
			add(i, i+1)
		}
	}
}

// takenTarget resolves the static target of the transfer at index t, when it
// has one: branch displacements are relative, a direct jspci (rs1 == r0)
// carries an absolute word address, and jpc/jpcrs or register-indirect
// jspci are statically unknown (paths end there, a documented limitation).
func (c *checker) takenTarget(t int) (int, bool) {
	in := c.ins[t]
	switch {
	case in.IsBranch():
		return t + int(in.Off), true
	case in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci && in.Rs1 == 0:
		return int(in.Off) - int(c.base), true
	}
	return 0, false
}

func (c *checker) pcOf(i int) isa.Word { return c.base + isa.Word(i) }

// labelFor names an address relative to the nearest preceding label.
func (c *checker) labelFor(a isa.Word) string {
	k := sort.Search(len(c.symAddrs), func(i int) bool { return c.symAddrs[i] > a })
	if k == 0 {
		return ""
	}
	la := c.symAddrs[k-1]
	name := c.symNames[la]
	if la == a {
		return name
	}
	return fmt.Sprintf("%s+%d", name, a-la)
}

func (c *checker) report(rule string, i int, format string, args ...any) {
	pc := c.pcOf(i)
	c.diags = append(c.diags, Diagnostic{
		Rule:     rule,
		Severity: RuleSeverity(rule),
		PC:       pc,
		Line:     c.lines[i],
		Label:    c.labelFor(pc),
		Detail:   fmt.Sprintf(format, args...),
	})
}

func (c *checker) run() {
	c.checkCtrlInSlot()
	c.checkTiming()
	c.checkPSWWindow()
	c.checkSquashSlotWrites()
	c.checkSchedulingQuality()
}

// ---------------------------------------------------------------------------
// Timing model. Written independently of internal/reorg's scheduler tables
// so the verifier cross-checks the reorganizer rather than inheriting its
// assumptions. Distances are issue-slot distances; an instruction at issue
// position i runs IF at cycle i, RF i+1, ALU i+2, MEM i+3, WB i+4.

// specWritten returns the special register a mots writes, or -1.
func specWritten(in isa.Instruction) int {
	if in.Class == isa.ClassCompute && in.Comp == isa.CompMots {
		return int(in.Func)
	}
	return -1
}

// readsSpec reports whether the instruction consumes special register s
// before the writer's WB could have committed it: movs reads any selector,
// the multiply/divide steps read MD, and the PC-chain jumps read the chain
// (jpcrs additionally restores PSW from PSWold).
func readsSpec(in isa.Instruction, s int) bool {
	if in.Class != isa.ClassCompute {
		return false
	}
	switch in.Comp {
	case isa.CompMovs:
		return int(in.Func) == s
	case isa.CompMstep, isa.CompDstep:
		return s == isa.SpecMD
	case isa.CompJpc:
		return s == isa.SpecPC0 || s == isa.SpecPC1 || s == isa.SpecPC2
	case isa.CompJpcrs:
		return s == isa.SpecPC0 || s == isa.SpecPC1 || s == isa.SpecPC2 || s == isa.SpecPSWold
	}
	return false
}

// isQuickConsumer reports an instruction that, on the 1-slot machine,
// resolves in RF and therefore sees one less level of bypassing.
func isQuickConsumer(in isa.Instruction) bool {
	return in.IsBranch() || (in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci)
}

// readsReg reports whether the instruction reads general register r.
func readsReg(in isa.Instruction, r isa.Reg) bool {
	for _, s := range in.ReadsRegs() {
		if s == r {
			return true
		}
	}
	return false
}

// checkTiming walks issue successors from every producer, verifying that no
// consumer sits closer than the machine's bypass network can serve. The walk
// crosses basic-block boundaries along both taken and fall-through edges —
// this is where a linear-window check (like the reorganizer's own) is blind.
func (c *checker) checkTiming() {
	for i := range c.ins {
		if !c.isIn[i] {
			continue
		}
		if rd, ok := c.ins[i].WritesReg(); ok {
			c.walkReg(i, rd)
		}
		if sw := specWritten(c.ins[i]); sw >= 0 {
			c.walkSpec(i, sw)
		}
	}
}

// walkReg checks consumers of producer i's general-register result. The
// deepest constraint is 3 (a load feeding a quick branch), so the walk is
// bounded; a redefinition of the register ends a path (the consumer then
// observes the redefining instruction, whose own walk covers it).
func (c *checker) walkReg(i int, rd isa.Reg) {
	p := c.ins[i]
	plainNeed := 1
	if p.IsLoad() {
		plainNeed = 2
	}
	maxNeed := plainNeed
	if c.cfg.Slots == 1 {
		maxNeed++
	}
	type visit struct{ node, dist int }
	frontier := []visit{}
	for _, s := range c.succ[i] {
		frontier = append(frontier, visit{s, 1})
	}
	seen := map[int]int{}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		if d, ok := seen[v.node]; ok && d <= v.dist {
			continue
		}
		seen[v.node] = v.dist
		in := c.ins[v.node]
		if readsReg(in, rd) {
			need := plainNeed
			quick := c.cfg.Slots == 1 && isQuickConsumer(in)
			if quick {
				need++
			}
			if v.dist < need {
				switch {
				case v.dist >= plainNeed: // only the early resolve is violated
					c.report(RuleQuickBranch, v.node,
						"quick-compare %s reads r%d produced %d slot(s) earlier (1-slot machine needs %d)",
						mnemonic(in), rd, v.dist, need)
				case p.Class == isa.ClassMem && p.Mem == isa.MemLdc:
					c.report(RuleCoprocTransfer, v.node,
						"reads r%d transferred by ldc %d slot(s) earlier (coprocessor data arrives at end of MEM; needs %d)",
						rd, v.dist, need)
				case p.IsLoad():
					c.report(RuleLoadUse, v.node,
						"reads r%d loaded %d slot(s) earlier (load delay slot unfilled; needs %d)",
						rd, v.dist, need)
				default:
					c.report(RuleQuickBranch, v.node,
						"reads r%d produced %d slot(s) earlier (needs %d)", rd, v.dist, need)
				}
			}
		}
		if w, ok := in.WritesReg(); ok && w == rd {
			continue // redefined: younger writeback wins from here on
		}
		if v.dist < maxNeed-1 {
			for _, s := range c.succ[v.node] {
				frontier = append(frontier, visit{s, v.dist + 1})
			}
		}
	}
}

// walkSpec checks consumers of a mots write. Special registers commit at WB,
// which runs before ALU within a cycle, so any reader must sit at distance
// ≥ 2; only the immediate successors can violate that.
func (c *checker) walkSpec(i, sw int) {
	for _, j := range c.succ[i] {
		in := c.ins[j]
		if !readsSpec(in, sw) {
			continue
		}
		rule := RuleSpecialTiming
		if sw >= isa.SpecPC0 && sw <= isa.SpecPC2 || isChainJump(in) {
			rule = RulePCChain
		}
		c.report(rule, j,
			"%s reads %s written by the previous instruction (mots commits at WB; needs distance 2)",
			mnemonic(in), isa.SpecName(uint16(sw)))
	}
}

// checkCtrlInSlot rejects control transfers inside delay slots — the fetch
// stream cannot honor two redirects at once, and the reference model refuses
// such programs outright. The sanctioned exception is the exception-restart
// sequence, three PC-chain jumps each sitting in the previous one's slots
// (paper: "the three special jumps refill the pipeline").
func (c *checker) checkCtrlInSlot() {
	for i := range c.ins {
		if !c.isIn[i] || !isXfer(c.ins[i]) {
			continue
		}
		t := c.owner[i]
		if t < 0 {
			continue
		}
		if isChainJump(c.ins[t]) && isChainJump(c.ins[i]) {
			continue
		}
		c.report(RuleCtrlInSlot, i,
			"%s in the delay slot of the %s at pc %#06x",
			mnemonic(c.ins[i]), mnemonic(c.ins[t]), c.pcOf(t))
	}
}

// checkPSWWindow warns about PSW-sensitive instructions issued inside the
// commit window of a mots psw: until the mots reaches WB they execute under
// the old PSW (privilege, interrupt mask, overflow trapping) — which the
// paper's exception machinery makes the handler's problem, not hardware's.
func (c *checker) checkPSWWindow() {
	for i := range c.ins {
		if !c.isIn[i] {
			continue
		}
		if specWritten(c.ins[i]) != isa.SpecPSW {
			continue
		}
		for _, j := range c.succ[i] {
			in := c.ins[j]
			if !pswSensitive(in) || readsSpec(in, isa.SpecPSW) { // movs psw is special-timing's finding
				continue
			}
			c.report(RulePSWWindow, j,
				"%s executes one slot after mots psw, under the OLD PSW (the write commits at WB)",
				mnemonic(in))
		}
	}
}

// pswSensitive reports instructions whose behavior depends on the PSW:
// trapping arithmetic (overflow enable) and privileged operations. The
// canonical no-op is an add in encoding only — never sensitive.
func pswSensitive(in isa.Instruction) bool {
	if in.IsNop() {
		return false
	}
	switch in.Class {
	case isa.ClassCompute:
		switch in.Comp {
		case isa.CompAdd, isa.CompSub, isa.CompJpc, isa.CompJpcrs:
			return true
		case isa.CompMots:
			return in.Func != isa.SpecMD // all but MD are system-only
		}
	case isa.ClassComputeImm:
		return in.Imm == isa.ImmAddi
	}
	return false
}

// checkSquashSlotWrites reports (informationally) squashed delay slots that
// write registers live on the fall-through path. The squash suppresses the
// write there — that is exactly what makes target-filled slots legal — so
// this is not a hazard; the diagnostic surfaces where the fall-through path
// depends on a pre-branch value that the taken path overwrites.
func (c *checker) checkSquashSlotWrites() {
	liveIn := c.liveness()
	for t := range c.ins {
		if !c.isIn[t] {
			continue
		}
		in := c.ins[t]
		if !in.IsBranch() || !in.Squash || isUncondBranch(in) {
			continue
		}
		f := t + c.cfg.Slots + 1
		if f >= len(c.ins) || !c.isIn[f] {
			continue
		}
		for j := t + 1; j <= t+c.cfg.Slots && j < len(c.ins); j++ {
			if !c.isIn[j] {
				break
			}
			rd, ok := c.ins[j].WritesReg()
			if ok && liveIn[f]&(1<<rd) != 0 {
				c.report(RuleSquashSlotWrite, j,
					"squashed slot writes r%d, which is live on the fall-through path (the write is suppressed there)", rd)
			}
		}
	}
}

// liveness computes live-in register sets per instruction by backward
// dataflow over the issue-successor graph, to a fixpoint.
func (c *checker) liveness() []uint32 {
	n := len(c.ins)
	liveIn := make([]uint32, n)
	use := make([]uint32, n)
	def := make([]uint32, n)
	for i := range c.ins {
		if !c.isIn[i] {
			continue
		}
		for _, r := range c.ins[i].ReadsRegs() {
			use[i] |= 1 << r
		}
		if rd, ok := c.ins[i].WritesReg(); ok {
			def[i] |= 1 << rd
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if !c.isIn[i] {
				continue
			}
			var out uint32
			for _, s := range c.succ[i] {
				out |= liveIn[s]
			}
			in := out&^def[i] | use[i]
			if in != liveIn[i] {
				liveIn[i] = in
				changed = true
			}
		}
	}
	return liveIn
}

// mnemonic gives a short name for diagnostics.
func mnemonic(in isa.Instruction) string {
	switch in.Class {
	case isa.ClassMem:
		return isa.MemName(in.Mem)
	case isa.ClassBranch:
		name := isa.CondName(in.Cond)
		if in.Squash {
			name += ".sq"
		}
		return name
	case isa.ClassCompute:
		return isa.CompName(in.Comp)
	}
	return isa.ImmName(in.Imm)
}
