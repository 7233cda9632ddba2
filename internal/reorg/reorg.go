// Package reorg implements the MIPS-X code reorganizer: the postpass
// software that makes naive compiler output legal and fast on a machine
// with no hardware interlocks.
//
// MIPS-X delegates all pipeline interlocks to software ("the resulting
// pipeline interlocks are handled by the supporting software system"). The
// reorganizer therefore has two jobs:
//
//  1. Scheduling: reorder instructions within basic blocks and insert no-ops
//     so that every value is produced far enough ahead of its use — one
//     delay slot (distance 2) after loads and after special-register writes
//     (which commit at WB, ahead of ALU in the same cycle), stricter
//     distances for quick-compare branches.
//  2. Branch-delay filling: give every control transfer its delay slots and
//     fill them usefully. The strategies are the paper's: move instructions
//     from above the branch (safe, always executed), or — with squashing
//     branches and static predict-taken — copy instructions from the branch
//     target and retarget the branch past them ("squash if don't go").
//
// The six schemes of paper Table 1 are the cross product of
// {1, 2} delay slots × {no squash, always squash, squash optional}.
package reorg

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/jsondoc"
)

// SquashMode selects the branch strategy family of Table 1.
type SquashMode uint8

const (
	// NoSquash: delay slots always execute; fill only with instructions
	// from above the branch (the original MIPS scheme).
	NoSquash SquashMode = iota
	// AlwaysSquash: every conditional branch is a squashing branch filled
	// from its target (static predict-taken for all branches).
	AlwaysSquash
	// SquashOptional: per-branch choice — squash-fill from the target when
	// the branch is predicted taken, otherwise a no-squash branch filled
	// from above. This is the scheme MIPS-X shipped with.
	SquashOptional
)

func (m SquashMode) String() string {
	switch m {
	case NoSquash:
		return "no squash"
	case AlwaysSquash:
		return "always squash"
	case SquashOptional:
		return "squash optional"
	}
	return "?"
}

// squashNames are the modes' names in a machine spec, in SquashMode order.
var squashNames = []string{"none", "always", "optional"}

// MarshalText writes the mode's spec name ("none", "always" or
// "optional"); String gives Table 1's row labels.
func (m SquashMode) MarshalText() ([]byte, error) {
	return jsondoc.EnumText("squash mode", squashNames, m)
}

// UnmarshalText reads a spec name; an unknown one is an error.
func (m *SquashMode) UnmarshalText(b []byte) error {
	return jsondoc.ParseEnum("squash mode", squashNames, b, m)
}

// Scheme is one point in the Table 1 design space, and a machine spec's
// branch block (spec.MachineSpec.Branch): it parameterizes the reorganizer
// (delay-slot filling strategy) and the pipeline (slot count) together,
// because a design point is only meaningful when both agree.
type Scheme struct {
	// Slots is the branch delay: 2 (the machine as built) or 1 (the
	// quick-compare alternative, which resolves a stage early).
	Slots  int        `json:"slots"`
	Squash SquashMode `json:"squash"`
}

func (s Scheme) String() string {
	return fmt.Sprintf("%d-slot %s", s.Slots, s.Squash)
}

// Table1Schemes returns the six schemes of paper Table 1, in its row order.
func Table1Schemes() []Scheme {
	return []Scheme{
		{2, NoSquash}, {2, AlwaysSquash}, {2, SquashOptional},
		{1, NoSquash}, {1, AlwaysSquash}, {1, SquashOptional},
	}
}

// Default is the scheme the real machine shipped with.
func Default() Scheme { return Scheme{Slots: 2, Squash: SquashOptional} }

// Profile carries measured per-branch taken fractions, keyed by the
// branch's ordinal position among conditional branches in the program. A
// nil Profile falls back to the static heuristic (backward taken, forward
// not taken). The paper's static prediction worked "at compile time
// (possibly with profiling)".
type Profile map[int]float64

// Reorganize schedules and branch-fills the program for the given scheme.
// The input is naive symbolic assembly: no delay slots, no interlock
// padding. The output is legal for a machine configured with the scheme's
// slot count.
func Reorganize(stmts []asm.Stmt, scheme Scheme, prof Profile) []asm.Stmt {
	if scheme.Slots != 1 && scheme.Slots != 2 {
		panic("reorg: scheme slots must be 1 or 2")
	}
	chunks := split(stmts)
	for _, c := range chunks {
		if c.kind == codeChunk {
			schedule(c, scheme)
		}
	}
	r := &reorganizer{scheme: scheme, prof: prof, chunks: chunks}
	r.index()
	r.fillSquash() // copy-from-target fills first (they pin labels)
	r.fillNoSquash()
	r.fixFallthrough()
	return r.flatten()
}

type chunkKind uint8

const (
	codeChunk chunkKind = iota
	dataChunk
)

// chunk is a basic block (code) or an opaque data region.
type chunk struct {
	labels []string
	kind   chunkKind
	body   []asm.Stmt // instruction statements, labels stripped
	ctrl   *asm.Stmt  // trailing control transfer, nil if fallthrough
	slots  []asm.Stmt // delay slots for ctrl, produced by the filler
}

// isUnconditional reports a branch that always goes (beq r0, r0).
func isUnconditional(in isa.Instruction) bool {
	return in.IsBranch() && in.Cond == isa.CondEq && in.Rs1 == 0 && in.Rs2 == 0
}

// isCtrl reports whether the statement transfers control.
func isCtrl(s asm.Stmt) bool {
	if !s.IsInstr {
		return false
	}
	in := s.In
	return in.IsBranch() || in.IsJump()
}

// split builds basic blocks: leaders are labeled statements, statements
// after a control transfer, and kind changes (code/data).
func split(stmts []asm.Stmt) []*chunk {
	var chunks []*chunk
	var cur *chunk
	flushNeeded := true
	for _, s := range stmts {
		kind := codeChunk
		if !s.IsInstr {
			kind = dataChunk
		}
		if flushNeeded || len(s.Labels) > 0 || cur == nil || cur.kind != kind {
			cur = &chunk{labels: s.Labels, kind: kind}
			chunks = append(chunks, cur)
			flushNeeded = false
			s.Labels = nil
		}
		if kind == dataChunk {
			cur.body = append(cur.body, s)
			continue
		}
		if isCtrl(s) {
			sc := s
			cur.ctrl = &sc
			flushNeeded = true
			continue
		}
		cur.body = append(cur.body, s)
	}
	return chunks
}

type reorganizer struct {
	scheme Scheme
	prof   Profile
	chunks []*chunk

	labelChunk map[string]int // label → chunk index
	nextLabel  int
}

func (r *reorganizer) index() {
	r.labelChunk = make(map[string]int)
	for i, c := range r.chunks {
		for _, l := range c.labels {
			r.labelChunk[l] = i
		}
	}
}

// predictTaken applies the profile or the static heuristic.
func (r *reorganizer) predictTaken(branchIdx, fromChunk int, target string) bool {
	if p, ok := r.prof[branchIdx]; ok {
		return p >= 0.5
	}
	t, ok := r.labelChunk[target]
	if !ok {
		return false
	}
	return t <= fromChunk // backward branches (loops) predicted taken
}

// squashWorthwhile decides whether a squashing branch beats a no-squash
// branch: a squash fill wastes 2(1−p)·slots cycles on mispredicts, so it
// needs a confidently-taken branch. With a profile the threshold is 70%;
// the static heuristic trusts backward branches (loops).
func (r *reorganizer) squashWorthwhile(branchIdx, fromChunk int, target string) bool {
	if p, ok := r.prof[branchIdx]; ok {
		return p >= 0.7
	}
	t, ok := r.labelChunk[target]
	if !ok {
		return false
	}
	return t <= fromChunk
}

// fillSquash performs the copy-from-target fills. These run before the
// from-above fills because they pin statements in target blocks with new
// labels, which the from-above pass must then not move.
func (r *reorganizer) fillSquash() {
	branchIdx := 0
	for ci, c := range r.chunks {
		ctrl := c.ctrl
		if ctrl == nil {
			continue
		}
		in := ctrl.In
		switch {
		case in.IsBranch() && !isUnconditional(in):
			worthwhile := r.squashWorthwhile(branchIdx, ci, ctrl.Target)
			branchIdx++
			useSquash := r.scheme.Squash == AlwaysSquash ||
				(r.scheme.Squash == SquashOptional && worthwhile)
			if !useSquash {
				continue
			}
			ctrl.In.Squash = true
			c.slots = r.stealFromTarget(ci, c, ctrl, nil, r.scheme.Slots, false)
		case in.IsBranch(): // unconditional b: slots always execute, steal
			// from the target freely without squashing.
			branchIdx++
			c.slots = r.stealFromTarget(ci, c, ctrl, nil, r.scheme.Slots, false)
		case in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci &&
			ctrl.Target != "" && in.Rs1 == 0:
			// Direct call: the callee's first instructions may run in the
			// slots (the call always transfers).
			c.slots = r.stealFromTarget(ci, c, ctrl, nil, r.scheme.Slots, false)
		}
	}
}

// stealFromTarget copies up to max leading instructions of the target block
// into the delay slots and retargets the transfer past them. When safeOnly
// is set (no-squash fills), each copy must be harmless on the fall-through
// path: a side-effect-free instruction whose destination register is dead
// there — the paper's "instructions from the destination ... that have no
// effect if the branch goes the wrong way".
func (r *reorganizer) stealFromTarget(ci int, c *chunk, ctrl *asm.Stmt, existing []asm.Stmt, max int, safeOnly bool) []asm.Stmt {
	slots := append([]asm.Stmt{}, existing...)
	ti, ok := r.labelChunk[ctrl.Target]
	if !ok {
		return existing
	}
	t := r.chunks[ti]
	if t.kind != codeChunk {
		return existing
	}
	k := 0
	for len(slots) < max && k < len(t.body) {
		cand := t.body[k]
		if cand.In.IsNop() || isCtrl(cand) || len(cand.Labels) > 0 {
			break
		}
		if safeOnly {
			rd, writes := cand.In.WritesReg()
			if !hoistable(cand.In) || !writes || !r.deadOnPath(rd, ci+1) {
				break
			}
		}
		// The copy must satisfy its producers' distances across the branch:
		// producers in c's body tail are now closer to the copy.
		if !r.candidateHazardFree(c, ctrl, slots, cand) {
			break
		}
		slots = append(slots, cand)
		k++
	}
	if k > 0 {
		// Retarget the branch past the stolen instructions.
		ctrl.Target = r.ensureLabel(ti, k)
	}
	return slots
}

// hoistable reports whether an instruction may execute speculatively on the
// wrong path: pure computes only. Loads are excluded — a wrong-path load
// can fault in the paged virtual-memory system MIPS-X supports, which is
// exactly why the paper prizes squashing: a squashed slot "allows any
// instruction from the branch destination to be placed in the slot, even
// when there is an adverse effect if the branch goes the wrong way".
func hoistable(in isa.Instruction) bool {
	switch in.Class {
	case isa.ClassCompute:
		switch in.Comp {
		case isa.CompAdd, isa.CompSub, isa.CompAddu, isa.CompSubu,
			isa.CompAnd, isa.CompOr, isa.CompXor, isa.CompSh,
			isa.CompSetGt, isa.CompSetLt, isa.CompSetEq:
			return true
		}
		return false
	case isa.ClassComputeImm:
		return in.Imm != isa.ImmJspci
	}
	return false
}

// deadOnPath reports whether register rd is written before being read on
// the executed stream starting at chunk start (conservative: gives up at
// control transfers and after a short window).
func (r *reorganizer) deadOnPath(rd isa.Reg, start int) bool {
	if rd == 0 {
		return true
	}
	seen := 0
	for i := start; i < len(r.chunks) && seen < 16; i++ {
		c := r.chunks[i]
		if c.kind != codeChunk {
			return false
		}
		for _, s := range c.body {
			for _, rr := range s.In.ReadsRegs() {
				if rr == rd {
					return false
				}
			}
			if w, ok := s.In.WritesReg(); ok && w == rd {
				return true
			}
			seen++
			if seen >= 16 {
				return false
			}
		}
		if c.ctrl != nil {
			for _, rr := range c.ctrl.In.ReadsRegs() {
				if rr == rd {
					return false
				}
			}
			return false // stop at control transfers, conservatively
		}
	}
	return false
}

// deadOnTarget is deadOnPath starting at a label's chunk.
func (r *reorganizer) deadOnTarget(rd isa.Reg, target string) bool {
	ti, ok := r.labelChunk[target]
	if !ok {
		return false
	}
	return r.deadOnPath(rd, ti)
}

// hoistFromFallthrough moves up to max-len(existing) safe instructions from
// the head of the (label-free, fall-through-only) next chunk into the delay
// slots: the paper's "sequential path" fill for branches predicted not
// taken. The instructions are moved, not copied, which is only sound when
// the next chunk has no other entry points.
func (r *reorganizer) hoistFromFallthrough(ci int, c *chunk, ctrl *asm.Stmt, existing []asm.Stmt, max int) []asm.Stmt {
	slots := append([]asm.Stmt{}, existing...)
	if ci+1 >= len(r.chunks) {
		return existing
	}
	next := r.chunks[ci+1]
	if next.kind != codeChunk || len(next.labels) > 0 {
		return existing
	}
	for len(slots) < max && len(next.body) > 0 {
		cand := next.body[0]
		if cand.In.IsNop() || isCtrl(cand) || len(cand.Labels) > 0 {
			break
		}
		rd, writes := cand.In.WritesReg()
		if !hoistable(cand.In) || !writes || !r.deadOnTarget(rd, ctrl.Target) {
			break
		}
		if !r.candidateHazardFree(c, ctrl, slots, cand) {
			break
		}
		slots = append(slots, cand)
		next.body = next.body[1:]
	}
	return slots
}

// ensureLabel returns a label naming position k within chunk ti's body
// (k may equal len(body), pointing at the chunk's control transfer or at
// the next chunk).
func (r *reorganizer) ensureLabel(ti, k int) string {
	t := r.chunks[ti]
	attach := func(labels *[]string) string {
		if len(*labels) > 0 {
			return (*labels)[0]
		}
		name := fmt.Sprintf(".Lr%d", r.nextLabel)
		r.nextLabel++
		*labels = append(*labels, name)
		r.labelChunk[name] = ti
		return name
	}
	if k < len(t.body) {
		return attach(&t.body[k].Labels)
	}
	if t.ctrl != nil {
		return attach(&t.ctrl.Labels)
	}
	// Fall through to the next chunk.
	if ti+1 < len(r.chunks) {
		next := r.chunks[ti+1]
		if len(next.labels) > 0 {
			return next.labels[0]
		}
		name := fmt.Sprintf(".Lr%d", r.nextLabel)
		r.nextLabel++
		next.labels = append(next.labels, name)
		r.labelChunk[name] = ti + 1
		return name
	}
	// Degenerate: target block empty at program end; keep original target.
	return t.labels[0]
}

// candidateHazardFree checks that placing cand after ctrl (and after the
// already chosen slots) violates no distance constraint against the tail of
// the block body.
func (r *reorganizer) candidateHazardFree(c *chunk, ctrl *asm.Stmt, chosen []asm.Stmt, cand asm.Stmt) bool {
	// Position of cand counted back from the branch: branch is distance
	// len(chosen)+1 before cand.
	window := append(append([]asm.Stmt{}, c.body...), *ctrl)
	window = append(window, chosen...)
	window = append(window, cand)
	return windowOK(window, r.scheme)
}

// fillNoSquash gives every remaining control transfer its slots: first
// instructions moved from above the branch (always useful), then — for
// conditional no-squash branches — safe instructions from the likely
// direction (target copies for predicted-taken, sequential-path hoists for
// predicted-not-taken), and finally no-ops.
func (r *reorganizer) fillNoSquash() {
	branchIdx := 0
	for ci, c := range r.chunks {
		ctrl := c.ctrl
		if ctrl == nil {
			continue
		}
		conditional := ctrl.In.IsBranch() && !isUnconditional(ctrl.In)
		taken := false
		if conditional {
			taken = r.predictTaken(branchIdx, ci, ctrl.Target)
			branchIdx++
		} else if ctrl.In.IsBranch() {
			branchIdx++
		}
		for len(c.slots) < r.scheme.Slots {
			if s, ok := r.stealFromAbove(ci, c); ok {
				c.slots = append([]asm.Stmt{s}, c.slots...)
				continue
			}
			break
		}
		if conditional && !ctrl.In.Squash && len(c.slots) < r.scheme.Slots {
			if taken {
				c.slots = r.stealFromTarget(ci, c, ctrl, c.slots, r.scheme.Slots, true)
			} else {
				c.slots = r.hoistFromFallthrough(ci, c, ctrl, c.slots, r.scheme.Slots)
			}
		}
		for len(c.slots) < r.scheme.Slots {
			c.slots = append(c.slots, nopStmt())
		}
	}
}

// stealFromAbove moves an instruction from the body into the slots if that
// is safe: slots of a no-squash branch (or of a jump) always execute, so
// the requirements are that the transfer does not depend on it, that it is
// not position-pinned, that nothing below it in the body depends on it in
// any way (it moves past them), and that all distance constraints still
// hold after the move. The search walks upward from the bottom of the
// block, as the paper's strategy describes ("first try to move an
// instruction from before the branch into the slot").
func (r *reorganizer) stealFromAbove(ci int, c *chunk) (asm.Stmt, bool) {
	if c.ctrl.In.Squash {
		// Mixed fill is not expressible: the single squash bit covers both
		// slots, and from-above instructions must never be squashed.
		return asm.Stmt{}, false
	}
	if len(c.ctrl.Labels) > 0 {
		// A squash fill elsewhere retargeted a branch straight at this
		// transfer; moving body instructions into its delay slots would
		// re-execute them on that entry path.
		return asm.Stmt{}, false
	}
	for i := len(c.body) - 1; i >= 0; i-- {
		cand := c.body[i]
		if len(cand.Labels) > 0 {
			// A label below the candidate is an entry point: nothing above
			// it may move past the transfer (it would start executing on
			// that path). Stop the upward search here.
			return asm.Stmt{}, false
		}
		if !movable(cand) {
			continue
		}
		// The transfer must not read anything cand writes.
		if rd, ok := cand.In.WritesReg(); ok {
			blocked := false
			for _, r := range c.ctrl.In.ReadsRegs() {
				if r == rd {
					blocked = true
				}
			}
			if blocked {
				continue
			}
		}
		// Nothing between cand and the branch may depend on cand in any
		// way (true, anti, output or ordering), since cand moves past it.
		conflict := false
		for j := i + 1; j < len(c.body); j++ {
			if depDist(cand.In, c.body[j].In, r.scheme) > 0 ||
				depDist(c.body[j].In, cand.In, r.scheme) > 0 {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Check distances in the rearranged window, and across both seams the
		// moved instruction now borders: it lands in an always-executed slot,
		// one issue position before the taken-target head on one path and
		// before the fall-through head on the other. (On the 1-slot machine a
		// quick-compare branch at either head needs its operands two slots
		// back — a windowOK over this block alone cannot see that.)
		body := append(append([]asm.Stmt{}, c.body[:i]...), c.body[i+1:]...)
		window := append(append([]asm.Stmt{}, body...), *c.ctrl)
		window = append(window, cand)
		window = append(window, c.slots...)
		if !windowOK(window, r.scheme) || !r.seamsOK(ci, c, window) {
			continue
		}
		c.body = body
		return cand, true
	}
	return asm.Stmt{}, false
}

// seamsOK verifies the window against the issue streams that follow it: the
// taken-target head (when the transfer's target is a resolvable label) and,
// for conditional branches, the fall-through head. Indirect transfers (jpc,
// register jspci) have no static target; their continuation is unknowable
// here and to the linter alike, a shared, documented limitation.
func (r *reorganizer) seamsOK(ci int, c *chunk, window []asm.Stmt) bool {
	need := r.scheme.Slots + 2
	if c.ctrl.Target != "" {
		if head, ok := r.targetHeadWindow(c.ctrl.Target, need); ok {
			if !windowOK(append(append([]asm.Stmt{}, window...), head...), r.scheme) {
				return false
			}
		}
	}
	if c.ctrl.In.IsBranch() && !isUnconditional(c.ctrl.In) && ci+1 < len(r.chunks) {
		next := r.chunks[ci+1]
		if next.kind == codeChunk {
			if !windowOK(append(append([]asm.Stmt{}, window...), headWindow(next, need)...), r.scheme) {
				return false
			}
		}
	}
	return true
}

// targetHeadWindow returns the first n executed statements from a label,
// which — after a squash fill retargeted a branch — may sit mid-chunk.
func (r *reorganizer) targetHeadWindow(target string, n int) ([]asm.Stmt, bool) {
	ti, ok := r.labelChunk[target]
	if !ok {
		return nil, false
	}
	t := r.chunks[ti]
	if t.kind != codeChunk {
		return nil, false
	}
	for _, l := range t.labels {
		if l == target {
			return headWindow(t, n), true
		}
	}
	start := len(t.body) // label on the ctrl itself, unless found in the body
	for i, s := range t.body {
		for _, l := range s.Labels {
			if l == target {
				start = i
			}
		}
	}
	var out []asm.Stmt
	for _, s := range t.body[start:] {
		if len(out) >= n {
			return out, true
		}
		out = append(out, s)
	}
	if t.ctrl != nil && len(out) < n {
		out = append(out, *t.ctrl)
		out = append(out, t.slots...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, true
}

// movable reports whether an instruction may be moved from above a branch
// into its always-executed delay slots. Loads stay put (their consumer in
// the next block could land inside the load delay); special-register and
// multiply/divide step instructions are sequence-pinned.
func movable(s asm.Stmt) bool {
	if !s.IsInstr || s.In.IsNop() || isCtrl(s) {
		return false
	}
	in := s.In
	if in.IsLoad() {
		return false
	}
	if in.Class == isa.ClassCompute {
		switch in.Comp {
		case isa.CompMovs, isa.CompMots, isa.CompMstep, isa.CompDstep, isa.CompTrap:
			return false
		}
	}
	return true
}

// fixFallthrough inserts no-ops at fall-through boundaries where the tail
// of one block and the head of the next violate a distance constraint
// (e.g. a block ending in a load whose value the next block uses at once).
// No rule asks for more than maxDist, so it stops after maxDist no-ops: a
// hazard still left sits inside a block, a scheduler bug that more no-ops
// cannot fix and that the lint tinyc.Build runs reports by pc.
func (r *reorganizer) fixFallthrough() {
	for i := 0; i+1 < len(r.chunks); i++ {
		c := r.chunks[i]
		if c.kind != codeChunk || c.ctrl != nil {
			continue
		}
		next := r.chunks[i+1]
		if next.kind != codeChunk {
			continue
		}
		for pad := 0; pad < maxDist; pad++ {
			window := append(append([]asm.Stmt{}, c.body...), headWindow(next, r.scheme.Slots+2)...)
			if windowOK(window, r.scheme) {
				break
			}
			c.body = append(c.body, nopStmt())
		}
	}
}

// headWindow returns the first n executed statements of a chunk.
func headWindow(c *chunk, n int) []asm.Stmt {
	var out []asm.Stmt
	for _, s := range c.body {
		if len(out) >= n {
			return out
		}
		out = append(out, s)
	}
	if c.ctrl != nil && len(out) < n {
		out = append(out, *c.ctrl)
	}
	for _, s := range c.slots {
		if len(out) >= n {
			return out
		}
		out = append(out, s)
	}
	return out
}

// flatten rebuilds the statement list.
func (r *reorganizer) flatten() []asm.Stmt {
	var out []asm.Stmt
	for _, c := range r.chunks {
		labels := c.labels
		emit := func(s asm.Stmt) {
			if labels != nil {
				s.Labels = append(labels, s.Labels...)
				labels = nil
			}
			out = append(out, s)
		}
		for _, s := range c.body {
			emit(s)
		}
		if c.ctrl != nil {
			emit(*c.ctrl)
			for _, s := range c.slots {
				s.Labels = nil // copies must not duplicate labels
				out = append(out, s)
			}
		}
		if labels != nil {
			// Label-only chunk: emit an empty space to carry the labels.
			out = append(out, asm.Stmt{Labels: labels})
		}
	}
	return out
}

func nopStmt() asm.Stmt {
	return asm.Stmt{IsInstr: true, In: isa.Nop()}
}
