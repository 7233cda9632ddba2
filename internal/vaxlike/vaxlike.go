// Package vaxlike implements the CISC baseline of the paper's conclusions:
// a two-address, memory-operand, condition-code machine with microcoded
// per-instruction cycle costs, standing in for the VAX 11/780 the paper
// compared against ("MIPS-X executes about 25% more instructions but
// executes the programs about 14 times faster for unoptimized code").
//
// The machine is deliberately VAX-shaped where it matters to the
// comparison:
//
//   - instructions take memory operands directly (displacement, absolute
//     and indexed modes), so a CISC instruction does the work of several
//     RISC instructions — fewer instructions executed, more cycles each;
//   - a CMP instruction sets condition codes that a following conditional
//     branch tests — the style whose cost the MIPS-X team measured when
//     they found ~80% of branches need an explicit compare (experiment E3);
//   - multiply and divide are single, slow, microcoded instructions;
//   - the clock is 5 MHz (the 11/780's).
//
// The tinyc compiler has a second backend targeting this machine
// (internal/tinyc's BuildVAX), so the same source program runs on both
// architectures for the path-length and speedup comparison.
package vaxlike

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ClockMHz is the VAX 11/780 clock rate.
const ClockMHz = 5.0

// Op is an instruction opcode.
type Op uint8

// Opcodes. Two-address arithmetic: op src, dst (dst := dst op src).
const (
	MOV  Op = iota // dst := src
	ADD            // dst += src
	SUB            // dst -= src
	MUL            // dst *= src (microcoded)
	DIV            // dst /= src (microcoded)
	MOD            // dst %= src (microcoded)
	AND            // dst &= src
	OR             // dst |= src
	XOR            // dst ^= src
	ASH            // dst shifted by literal src (negative = right)
	MNEG           // dst := -src
	CMP            // set condition codes from src ? dst2 (two sources)
	TST            // set condition codes from src ? 0
	BEQ            // branch on condition codes
	BNE
	BLT
	BLE
	BGT
	BGE
	BR  // branch always
	JSR // push return address, jump
	RSB // return
	PRNT
	PUTC
	HALT
)

var opNames = [...]string{
	"mov", "add", "sub", "mul", "div", "mod", "and", "or", "xor", "ash",
	"mneg", "cmp", "tst", "beq", "bne", "blt", "ble", "bgt", "bge", "br",
	"jsr", "rsb", "prnt", "putc", "halt",
}

func (o Op) String() string { return opNames[o] }

// Mode is an operand addressing mode.
type Mode uint8

// Addressing modes with their microcycle costs (Cost).
const (
	ModeNone Mode = iota
	ModeLit       // literal constant
	ModeReg       // register direct
	ModeAbs       // absolute memory address
	ModeDisp      // disp(reg): register + displacement
	ModeIdx       // abs[reg]: absolute base indexed by register
)

// Operand is one instruction operand.
type Operand struct {
	Mode Mode
	Val  int32 // literal, absolute address, or displacement
	Reg  uint8
}

// Convenience constructors.
func Lit(v int32) Operand           { return Operand{Mode: ModeLit, Val: v} }
func Reg(r uint8) Operand           { return Operand{Mode: ModeReg, Reg: r} }
func Abs(a int32) Operand           { return Operand{Mode: ModeAbs, Val: a} }
func Disp(r uint8, d int32) Operand { return Operand{Mode: ModeDisp, Reg: r, Val: d} }
func Idx(a int32, r uint8) Operand  { return Operand{Mode: ModeIdx, Val: a, Reg: r} }

func (o Operand) String() string {
	switch o.Mode {
	case ModeLit:
		return fmt.Sprintf("$%d", o.Val)
	case ModeReg:
		return fmt.Sprintf("r%d", o.Reg)
	case ModeAbs:
		return fmt.Sprintf("@%d", o.Val)
	case ModeDisp:
		return fmt.Sprintf("%d(r%d)", o.Val, o.Reg)
	case ModeIdx:
		return fmt.Sprintf("@%d[r%d]", o.Val, o.Reg)
	}
	return ""
}

// Instr is one instruction. Branch/JSR targets are instruction indices.
type Instr struct {
	Op       Op
	Src, Dst Operand
	Target   int32
}

func (in Instr) String() string {
	switch in.Op {
	case BEQ, BNE, BLT, BLE, BGT, BGE, BR, JSR:
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case RSB, HALT:
		return in.Op.String()
	case PRNT, PUTC, TST:
		return fmt.Sprintf("%s %s", in.Op, in.Src)
	}
	return fmt.Sprintf("%s %s, %s", in.Op, in.Src, in.Dst)
}

// Cycle-cost model, loosely calibrated to the 11/780's ~7–10 cycles per
// average instruction: a base cost per opcode plus a cost per memory
// operand access.
const (
	costBase   = 3 // decode + execute for simple ops
	costBranch = 4
	costJSR    = 10 // CALLS-style microcoded call overhead
	costRSB    = 8
	costMul    = 32
	costDiv    = 42
)

func modeCost(m Mode) int {
	switch m {
	case ModeLit:
		return 1
	case ModeReg:
		return 0
	case ModeAbs:
		return 2
	case ModeDisp:
		return 2
	case ModeIdx:
		return 3
	}
	return 0
}

// Registers: 16, with conventions mirroring the tinyc MIPS-X backend.
const (
	RegSP = 14
	RegFP = 13
	RegRV = 0 // return value
)

// Stats accumulates a run's behaviour.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Branches     uint64
	TakenBr      uint64
	// CCFromCmp counts conditional branches whose condition codes were set
	// by an explicit CMP/TST; CCFromALU counts those that reused codes from
	// an arithmetic instruction — the measurement behind the paper's "in
	// roughly 80% of the branches an explicit compare operation must be
	// performed".
	CCFromCmp uint64
	CCFromALU uint64
	Calls     uint64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Machine interprets vaxlike code.
type Machine struct {
	Code []Instr
	regs [16]int32
	mem  map[int32]int32
	pc   int32

	ccN, ccZ  bool // condition codes
	ccFromCmp bool

	Out    io.Writer
	Halted bool
	Stats  Stats

	// Led, when non-nil, receives per-cause cycle attribution under the
	// obs.VAXCauseNames schema, decomposing the microcoded cost model
	// (decode/execute base, operand-mode microcycles, long microcode
	// sequences, branch, call/return, I/O). Attach with Observe; the
	// conservation invariant sum(causes) == Stats.Cycles holds exactly.
	Led *obs.Ledger
}

// New builds a machine over the code with the stack pointer initialized.
func New(code []Instr, out io.Writer) *Machine {
	m := &Machine{Code: code, mem: make(map[int32]int32), Out: out}
	m.regs[RegSP] = 1 << 20
	return m
}

// Reg returns a register value (for tests).
func (m *Machine) Reg(r uint8) int32 { return m.regs[r] }

// Mem returns a memory word (for tests).
func (m *Machine) Mem(a int32) int32 { return m.mem[a] }

func (m *Machine) read(o Operand) int32 {
	switch o.Mode {
	case ModeLit:
		return o.Val
	case ModeReg:
		return m.regs[o.Reg]
	case ModeAbs:
		return m.mem[o.Val]
	case ModeDisp:
		return m.mem[m.regs[o.Reg]+o.Val]
	case ModeIdx:
		return m.mem[o.Val+m.regs[o.Reg]]
	}
	return 0
}

func (m *Machine) write(o Operand, v int32) {
	switch o.Mode {
	case ModeReg:
		m.regs[o.Reg] = v
	case ModeAbs:
		m.mem[o.Val] = v
	case ModeDisp:
		m.mem[m.regs[o.Reg]+o.Val] = v
	case ModeIdx:
		m.mem[o.Val+m.regs[o.Reg]] = v
	default:
		panic("vaxlike: write to non-writable operand")
	}
}

func (m *Machine) setCC(v int32, fromCmp bool) {
	m.ccN = v < 0
	m.ccZ = v == 0
	m.ccFromCmp = fromCmp
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.pc < 0 || int(m.pc) >= len(m.Code) {
		return fmt.Errorf("vaxlike: pc %d out of code", m.pc)
	}
	in := m.Code[m.pc]
	m.pc++
	m.Stats.Instructions++
	cost := costBase + modeCost(in.Src.Mode) + modeCost(in.Dst.Mode)

	arith := func(f func(d, s int32) int32) {
		d := m.read(in.Dst)
		v := f(d, m.read(in.Src))
		m.write(in.Dst, v)
		m.setCC(v, false)
	}

	switch in.Op {
	case MOV:
		v := m.read(in.Src)
		m.write(in.Dst, v)
		m.setCC(v, false)
	case ADD:
		arith(func(d, s int32) int32 { return d + s })
	case SUB:
		arith(func(d, s int32) int32 { return d - s })
	case MUL:
		cost += costMul
		arith(func(d, s int32) int32 { return d * s })
	case DIV:
		cost += costDiv
		arith(func(d, s int32) int32 {
			if s == 0 {
				return 0
			}
			return d / s
		})
	case MOD:
		cost += costDiv
		arith(func(d, s int32) int32 {
			if s == 0 {
				return d // d = 0*s + d, as MIPS-X's __mod leaves it
			}
			return d % s
		})
	case AND:
		arith(func(d, s int32) int32 { return d & s })
	case OR:
		arith(func(d, s int32) int32 { return d | s })
	case XOR:
		arith(func(d, s int32) int32 { return d ^ s })
	case ASH:
		arith(func(d, s int32) int32 {
			if s >= 0 {
				return d << uint(s&31)
			}
			return d >> uint(-s&31)
		})
	case MNEG:
		v := -m.read(in.Src)
		m.write(in.Dst, v)
		m.setCC(v, false)
	case CMP:
		// CMP src, dst: codes from src - dst (VAX compares first to second),
		// taken exactly as a VAX branch's N xor V takes them, so a
		// difference that overflows int32 still branches the right way.
		m.setCC(int32(cmp.Compare(m.read(in.Src), m.read(in.Dst))), true)
		cost++
	case TST:
		m.setCC(m.read(in.Src), true)
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		cost = costBranch + modeCost(in.Src.Mode)
		m.Stats.Branches++
		if m.ccFromCmp {
			m.Stats.CCFromCmp++
		} else {
			m.Stats.CCFromALU++
		}
		take := false
		switch in.Op {
		case BEQ:
			take = m.ccZ
		case BNE:
			take = !m.ccZ
		case BLT:
			take = m.ccN
		case BLE:
			take = m.ccN || m.ccZ
		case BGT:
			take = !m.ccN && !m.ccZ
		case BGE:
			take = !m.ccN
		}
		if take {
			m.Stats.TakenBr++
			m.pc = in.Target
		}
	case BR:
		cost = costBranch
		m.pc = in.Target
	case JSR:
		cost = costJSR
		m.Stats.Calls++
		m.regs[RegSP]--
		m.mem[m.regs[RegSP]] = m.pc
		m.pc = in.Target
	case RSB:
		cost = costRSB
		m.pc = m.mem[m.regs[RegSP]]
		m.regs[RegSP]++
	case PRNT:
		if m.Out != nil {
			fmt.Fprintf(m.Out, "%d\n", m.read(in.Src))
		}
		cost += 2
	case PUTC:
		if m.Out != nil {
			fmt.Fprintf(m.Out, "%c", rune(m.read(in.Src)&0xFF))
		}
		cost += 2
	case HALT:
		m.Halted = true
	default:
		return fmt.Errorf("vaxlike: bad opcode %d", in.Op)
	}
	m.Stats.Cycles += uint64(cost)
	if m.Led != nil {
		m.attribute(in, cost)
	}
	return nil
}

// NewVAXLedger builds a ledger with the VAX-like cause schema.
func NewVAXLedger() *obs.Ledger { return obs.NewLedger(obs.VAXCauseNames) }

// Observe attaches a cycle-attribution ledger (nil detaches). Attach before
// the first Step so the ledger covers the whole run.
func (m *Machine) Observe(led *obs.Ledger) { m.Led = led }

// VerifyAttribution checks the conservation invariant on the attached
// ledger; trivially nil without one.
func (m *Machine) VerifyAttribution() error {
	if m.Led == nil {
		return nil
	}
	if got := m.Led.Total(); got != m.Stats.Cycles {
		return fmt.Errorf("vaxlike: attribution conservation violated: ledger %d != cycles %d", got, m.Stats.Cycles)
	}
	return nil
}

// attribute decomposes one instruction's cycle cost into the ledger causes.
// Each arm assigns the opcode's fixed portions and gives the remainder to
// the operand cause, so the decomposition sums to cost exactly by
// construction — the cost model can be retuned without breaking
// conservation.
func (m *Machine) attribute(in Instr, cost int) {
	led := m.Led
	operand := func(fixed int) { led.Add(obs.VAXOperand, uint64(cost-fixed)) }
	switch in.Op {
	case BEQ, BNE, BLT, BLE, BGT, BGE, BR:
		led.Add(obs.VAXBranch, costBranch)
		operand(costBranch)
	case JSR, RSB:
		led.Add(obs.VAXCallReturn, uint64(cost))
	case MUL:
		led.Add(obs.VAXDecodeExecute, costBase)
		led.Add(obs.VAXMicrocode, costMul)
		operand(costBase + costMul)
	case DIV, MOD:
		led.Add(obs.VAXDecodeExecute, costBase)
		led.Add(obs.VAXMicrocode, costDiv)
		operand(costBase + costDiv)
	case PRNT, PUTC:
		led.Add(obs.VAXDecodeExecute, costBase)
		led.Add(obs.VAXIO, 2)
		operand(costBase + 2)
	default:
		led.Add(obs.VAXDecodeExecute, costBase)
		operand(costBase)
	}
}

// Run executes until HALT or the instruction limit.
func (m *Machine) Run(maxInstr uint64) error {
	for !m.Halted {
		if m.Stats.Instructions >= maxInstr {
			return fmt.Errorf("vaxlike: no halt within %d instructions", maxInstr)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
