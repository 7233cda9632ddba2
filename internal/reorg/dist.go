package reorg

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// Pipeline distance rules (positions are instruction slots; an instruction
// at position i reaches IF at cycle i, ALU at i+2, MEM at i+3, WB at i+4):
//
//   - compute result → consumer ALU: distance 1 (full bypassing).
//   - load (ld/ldc) data → consumer ALU: distance 2 (data arrives at the
//     end of MEM; one delay slot).
//   - mots special → reader: distance 2 (the write commits at WB, which
//     runs before ALU within a cycle).
//   - quick-compare branches (one-slot machine) read at RF: any producer
//     needs distance 2, a load distance 3.

// maxDist is the largest distance any rule demands.
const maxDist = 3

// specWritten returns the special register a mots writes, or -1.
func specWritten(in isa.Instruction) int {
	if in.Class == isa.ClassCompute && in.Comp == isa.CompMots {
		return int(in.Func)
	}
	return -1
}

// specsRead returns the special registers an instruction reads.
func specsRead(in isa.Instruction) []int {
	if in.Class != isa.ClassCompute {
		return nil
	}
	switch in.Comp {
	case isa.CompMovs:
		return []int{int(in.Func)}
	case isa.CompMstep, isa.CompDstep:
		return []int{isa.SpecMD}
	case isa.CompJpc, isa.CompJpcrs:
		return []int{isa.SpecPC0, isa.SpecPC1, isa.SpecPC2}
	}
	return nil
}

// isQuickBranch reports whether c resolves in RF under the scheme (the
// one-slot quick-compare machine resolves branches and direct jumps early).
func isQuickBranch(in isa.Instruction, scheme Scheme) bool {
	if scheme.Slots != 1 {
		return false
	}
	return in.IsBranch() || (in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci)
}

// timingDist returns the minimum instruction-slot distance required between
// producer p and consumer c for c to observe p's result, or 0 when c does
// not consume anything p produces.
func timingDist(p, c isa.Instruction, scheme Scheme) int {
	need := 0
	// General-register dependences.
	if rd, ok := p.WritesReg(); ok {
		for _, r := range c.ReadsRegs() {
			if r != rd {
				continue
			}
			d := 1
			if p.IsLoad() {
				d = 2
			}
			if isQuickBranch(c, scheme) {
				d++
			}
			if d > need {
				need = d
			}
		}
	}
	// Special-register dependences: mots commits at WB.
	if sw := specWritten(p); sw >= 0 {
		for _, sr := range specsRead(c) {
			if sr == sw && need < 2 {
				need = 2
			}
		}
	}
	return need
}

// orderDist returns 1 when p must simply precede c (anti/output
// dependences, memory and device ordering), else 0.
func orderDist(p, c isa.Instruction) int {
	// Anti and output register dependences.
	if rd, ok := c.WritesReg(); ok {
		if prd, ok2 := p.WritesReg(); ok2 && prd == rd {
			return 1
		}
		for _, r := range p.ReadsRegs() {
			if r == rd {
				return 1
			}
		}
	}
	// Special-register order (including MD step sequences).
	if sw := specWritten(p); sw >= 0 {
		if cw := specWritten(c); cw == sw {
			return 1
		}
	}
	if cw := specWritten(c); cw >= 0 {
		for _, sr := range specsRead(p) {
			if sr == cw {
				return 1
			}
		}
	}
	if stepsMD(p) && (stepsMD(c) || readsMD(c)) {
		return 1
	}
	if stepsMD(c) && (stepsMD(p) || readsMD(p) || specWritten(p) == isa.SpecMD) {
		return 1
	}
	// Memory and device ordering: ordered operations form a chain; plain
	// loads may not cross them.
	if ordered(p) && ordered(c) {
		return 1
	}
	if (ordered(p) && c.Class == isa.ClassMem) || (p.Class == isa.ClassMem && ordered(c)) {
		return 1
	}
	return 0
}

func stepsMD(in isa.Instruction) bool {
	return in.Class == isa.ClassCompute && (in.Comp == isa.CompMstep || in.Comp == isa.CompDstep)
}

func readsMD(in isa.Instruction) bool {
	return in.Class == isa.ClassCompute && in.Comp == isa.CompMovs && in.Func == isa.SpecMD
}

// ordered marks instructions with side effects that must stay in program
// order: stores, FPU memory ops, coprocessor operations, special-register
// traffic, and traps.
func ordered(in isa.Instruction) bool {
	if in.Class == isa.ClassMem {
		switch in.Mem {
		case isa.MemSt, isa.MemStf, isa.MemLdf, isa.MemLdc, isa.MemStc, isa.MemCpw:
			return true
		}
		return false
	}
	if in.Class == isa.ClassCompute {
		switch in.Comp {
		case isa.CompMovs, isa.CompMots, isa.CompTrap, isa.CompMstep, isa.CompDstep,
			isa.CompJpc, isa.CompJpcrs:
			return true
		}
	}
	return false
}

// depDist is the scheduling edge weight: the larger of the timing and
// ordering requirements.
func depDist(p, c isa.Instruction, scheme Scheme) int {
	t := timingDist(p, c, scheme)
	if o := orderDist(p, c); o > t {
		return o
	}
	return t
}

// windowOK verifies every timing constraint within a linear window of
// statements (order constraints hold by construction).
func windowOK(stmts []asm.Stmt, scheme Scheme) bool {
	for j := 1; j < len(stmts); j++ {
		if !stmts[j].IsInstr {
			continue
		}
		lo := max(j-maxDist, 0)
		for i := lo; i < j; i++ {
			if !stmts[i].IsInstr {
				continue
			}
			if timingDist(stmts[i].In, stmts[j].In, scheme) > j-i {
				return false
			}
		}
	}
	return true
}

// schedule list-schedules a block body (and its trailing control transfer)
// so that all distance constraints hold, inserting no-ops only when no
// instruction can legally issue — the reorganizer's interlock pass.
func schedule(c *chunk, scheme Scheme) {
	nodes := make([]asm.Stmt, len(c.body))
	copy(nodes, c.body)
	ctrlIdx := -1
	if c.ctrl != nil {
		nodes = append(nodes, *c.ctrl)
		ctrlIdx = len(nodes) - 1
	}
	n := len(nodes)
	if n == 0 {
		return
	}
	type edge struct{ from, dist int }
	preds := make([][]edge, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if d := depDist(nodes[i].In, nodes[j].In, scheme); d > 0 {
				preds[j] = append(preds[j], edge{i, d})
			}
		}
	}

	placedAt := make([]int, n)
	done := make([]bool, n)
	var out []asm.Stmt
	remaining := n
	for t := 0; remaining > 0; t++ {
		pick := -1
		for j := 0; j < n; j++ {
			if done[j] || (j == ctrlIdx && remaining > 1) {
				continue
			}
			ready := true
			for _, e := range preds[j] {
				if !done[e.from] || t < placedAt[e.from]+e.dist {
					ready = false
					break
				}
			}
			if ready {
				pick = j
				break
			}
		}
		if pick < 0 {
			out = append(out, nopStmt())
			continue
		}
		placedAt[pick] = t
		done[pick] = true
		remaining--
		if pick != ctrlIdx {
			out = append(out, nodes[pick])
		}
	}
	c.body = out
	// ctrl keeps its original statement (with any symbolic target); its
	// required padding is already materialized as trailing no-ops in out.
}
