// Package refmodel is a golden-model interpreter for the MIPS-X
// architecture: it executes programs sequentially, instruction by
// instruction, with the architectural semantics (including branch delay
// slots and squashing, which are architecturally visible on MIPS-X) but
// with no pipeline, no caches and no timing.
//
// Its purpose is differential testing: any hazard-free program must produce
// identical architectural state on the pipelined simulator and on this
// model. The pipeline's bypass network, delayed writeback, squash
// machinery and exception plumbing are all ways to *appear* sequential;
// this model says what "sequential" means.
package refmodel

import (
	"fmt"
	"strings"

	"repro/internal/coproc"
	"repro/internal/isa"
)

// Machine is the reference interpreter.
type Machine struct {
	Regs  [isa.NumRegs]isa.Word
	PSW   isa.PSW
	MD    isa.Word
	PC    isa.Word
	Mem   map[isa.Word]isa.Word
	Slots int // branch delay slots (must match the compared machine)

	FPU     *coproc.FPU
	Console *coproc.Console
	Out     strings.Builder

	Instructions uint64
}

// New builds a reference machine with the given delay-slot count, loading
// the image at base.
func New(slots int, base isa.Word, words []isa.Word) *Machine {
	m := &Machine{Mem: make(map[isa.Word]isa.Word), Slots: slots, PSW: isa.ResetPSW}
	m.FPU = coproc.NewFPU()
	m.Console = &coproc.Console{Out: &m.Out}
	for i, w := range words {
		m.Mem[base+isa.Word(i)] = w
	}
	return m
}

// Run interprets until the console halts or maxInstr instructions retire.
func (m *Machine) Run(maxInstr uint64) error {
	for !m.Console.Halted {
		if m.Instructions >= maxInstr {
			return fmt.Errorf("refmodel: no halt within %d instructions (pc %#x)", maxInstr, m.PC)
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) reg(r isa.Reg) isa.Word {
	if r == 0 {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) setReg(r isa.Reg, v isa.Word) {
	if r != 0 {
		m.Regs[r] = v
	}
}

// step executes the instruction at PC. Control transfers execute their
// delay slots inline (recursively via exec), applying squash semantics.
func (m *Machine) step() error {
	in := isa.Decode(m.Mem[m.PC])
	pc := m.PC
	m.PC++
	m.Instructions++

	switch {
	case in.IsBranch():
		a, b := m.reg(in.Rs1), m.reg(in.Rs2)
		taken := isa.EvalCond(in.Cond, a, b)
		squash := in.Squash && !taken
		// Execute (or squash) the delay slots.
		for s := 0; s < m.Slots; s++ {
			if squash {
				m.PC++
				m.Instructions++ // a squashed slot still occupies an issue
				continue
			}
			if err := m.execNonControl(); err != nil {
				return err
			}
		}
		if taken {
			m.PC = pc + isa.Word(in.Off)
		}
		return nil

	case in.Class == isa.ClassComputeImm && in.Imm == isa.ImmJspci:
		target := m.reg(in.Rs1) + isa.Word(in.Off)
		// The link value is architecturally visible to the delay slots (the
		// pipeline bypasses it), so it is written before they execute; a
		// slot that overwrites it wins, as its writeback is younger.
		m.setReg(in.Rd, pc+1+isa.Word(m.Slots))
		for s := 0; s < m.Slots; s++ {
			if err := m.execNonControl(); err != nil {
				return err
			}
		}
		m.PC = target
		return nil
	}
	return m.execOne(in, pc)
}

// execNonControl executes the instruction at PC, which must not be a
// control transfer (the reorganizer never puts one in a delay slot).
func (m *Machine) execNonControl() error {
	in := isa.Decode(m.Mem[m.PC])
	pc := m.PC
	m.PC++
	m.Instructions++
	if in.IsBranch() || in.IsJump() {
		return fmt.Errorf("refmodel: control transfer in a delay slot at %#x", pc)
	}
	return m.execOne(in, pc)
}

// execOne applies one non-transfer instruction's architectural effect.
func (m *Machine) execOne(in isa.Instruction, pc isa.Word) error {
	switch in.Class {
	case isa.ClassMem:
		addr := m.reg(in.Rs1) + isa.Word(in.Off)
		switch in.Mem {
		case isa.MemLd:
			m.setReg(in.Rd, m.Mem[addr])
		case isa.MemSt:
			m.Mem[addr] = m.reg(in.Rd)
		case isa.MemLdf:
			m.FPU.LoadReg(in.Rd, m.Mem[addr])
		case isa.MemStf:
			m.Mem[addr] = m.FPU.StoreReg(in.Rd)
		case isa.MemLdc, isa.MemStc, isa.MemCpw:
			res := m.coprocExec(in, addr)
			if in.Mem == isa.MemLdc {
				m.setReg(in.Rd, res)
			}
		}

	case isa.ClassCompute:
		a, b := m.reg(in.Rs1), m.reg(in.Rs2)
		switch in.Comp {
		case isa.CompAdd, isa.CompAddu:
			m.setReg(in.Rd, a+b)
		case isa.CompSub, isa.CompSubu:
			m.setReg(in.Rd, a-b)
		case isa.CompAnd:
			m.setReg(in.Rd, a&b)
		case isa.CompOr:
			m.setReg(in.Rd, a|b)
		case isa.CompXor:
			m.setReg(in.Rd, a^b)
		case isa.CompSh:
			m.setReg(in.Rd, isa.FunnelShift(a, b, uint(in.Func&31)))
		case isa.CompSetGt:
			m.setReg(in.Rd, b2w(int32(a) > int32(b)))
		case isa.CompSetLt:
			m.setReg(in.Rd, b2w(int32(a) < int32(b)))
		case isa.CompSetEq:
			m.setReg(in.Rd, b2w(a == b))
		case isa.CompSetOvf:
			sum := a + b
			if isa.AddOverflows(a, b) {
				sum |= 1 << 31
			} else {
				sum &^= 1 << 31
			}
			m.setReg(in.Rd, sum)
		case isa.CompMstep:
			acc := a
			var carry isa.Word
			if m.MD&1 != 0 {
				s := uint64(acc) + uint64(b)
				acc = isa.Word(s)
				carry = isa.Word(s >> 32)
			}
			m.MD = m.MD>>1 | acc<<31
			m.setReg(in.Rd, acc>>1|carry<<31)
		case isa.CompDstep:
			rem := a<<1 | m.MD>>31
			m.MD <<= 1
			if rem >= b && b != 0 {
				rem -= b
				m.MD |= 1
			}
			m.setReg(in.Rd, rem)
		case isa.CompMovs:
			switch in.Func {
			case isa.SpecPSW:
				m.setReg(in.Rd, isa.Word(m.PSW))
			case isa.SpecMD:
				m.setReg(in.Rd, m.MD)
			default:
				m.setReg(in.Rd, 0) // PC chain state has no sequential meaning
			}
		case isa.CompMots:
			switch in.Func {
			case isa.SpecPSW:
				m.PSW = isa.PSW(a)
			case isa.SpecMD:
				m.MD = a
			}
		case isa.CompTrap, isa.CompJpc, isa.CompJpcrs:
			return fmt.Errorf("refmodel: exception machinery at %#x has no sequential meaning", pc)
		}

	case isa.ClassComputeImm:
		a := m.reg(in.Rs1)
		switch in.Imm {
		case isa.ImmAddi, isa.ImmAddiu:
			m.setReg(in.Rd, a+isa.Word(in.Off))
		case isa.ImmLhi:
			m.setReg(in.Rd, a+isa.Word(in.Off)<<15)
		}
	}
	return nil
}

func (m *Machine) coprocExec(in isa.Instruction, value isa.Word) isa.Word {
	var res isa.Word
	switch in.CoprocNum() {
	case 1:
		res, _ = m.FPU.Exec(in.Mem, value, m.reg(in.Rd))
	case 7:
		res, _ = m.Console.Exec(in.Mem, value, m.reg(in.Rd))
	}
	return res
}

func b2w(b bool) isa.Word {
	if b {
		return 1
	}
	return 0
}
