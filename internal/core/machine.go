// Package core assembles the complete MIPS-X system of the paper: the
// pipelined processor (internal/pipeline), the on-chip instruction cache
// (internal/icache), the external cache (internal/ecache) and main memory
// behind a shared bus (internal/mem), and the coprocessors — an FPU on
// slot 1, the interrupt controller on slot 2, and the test/console
// coprocessor on slot 7 (internal/coproc).
//
// Machine is the library's public face: load a program, run it, read the
// statistics every experiment in the paper is built from.
package core

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/asm"
	"repro/internal/coproc"
	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ClockMHz is the design-point clock rate used to convert cycle counts to
// MIPS figures (the chip was designed for 20 MHz; first silicon ran at 16).
const ClockMHz = 20.0

// Config selects every tradeoff variant the experiments exercise.
type Config struct {
	Pipeline pipeline.Config
	Icache   icache.Config
	Ecache   ecache.Config
	Bus      mem.Bus
	// NoFPU omits the floating-point coprocessor.
	NoFPU bool
}

// DefaultConfig is the machine as built.
func DefaultConfig() Config {
	return Config{
		Pipeline: pipeline.DefaultConfig(),
		Icache:   icache.DefaultConfig(),
		Ecache:   ecache.DefaultConfig(),
		Bus:      *mem.DefaultBus(),
	}
}

// Machine is a complete MIPS-X system.
type Machine struct {
	Cfg Config

	CPU    *pipeline.CPU
	ICache *icache.Cache
	ECache *ecache.Cache
	Mem    *mem.Memory
	Bus    *mem.Bus

	FPU     *coproc.FPU
	IntC    *coproc.IntController
	Console *coproc.Console

	Image *asm.Image

	// Obs is the observability sink shared by the pipeline and both caches;
	// nil (the default) means observation is off. Attach with Observe.
	Obs *obs.Sink

	out strings.Builder
}

// New builds a machine. consoleOut receives program output (nil discards it
// into the machine's internal buffer, readable via Output).
func New(cfg Config, consoleOut io.Writer) *Machine {
	return NewShared(cfg, mem.New(), nil, consoleOut)
}

// NewShared builds a machine, with its own bus front-end, Ecache and Icache,
// over main memory it may share with other machines. A non-nil arb makes the
// bus one node of a physically shared, arbitrated bus, whose transfers queue
// on the caller's clock: set Bus.Now before the first run. This is the node
// of the MIPS-X project's system goal — 6–10 processors on one memory bus —
// that internal/scenario builds its multiprocessor from.
func NewShared(cfg Config, shared *mem.Memory, arb *mem.Arbiter, consoleOut io.Writer) *Machine {
	bus := &mem.Bus{Latency: cfg.Bus.Latency, PerWord: cfg.Bus.PerWord, Arb: arb}
	ec := ecache.New(cfg.Ecache, shared, bus)
	// A machine is the one context over its own hierarchy.
	host := &Machine{Cfg: cfg, Mem: shared, Bus: bus, ECache: ec, ICache: icache.New(cfg.Icache, ec)}
	return NewContext(host, consoleOut)
}

// NewContext builds a machine context: a private CPU and coprocessor set
// (FPU, interrupt controller, console) over host's entire memory hierarchy —
// main memory, bus, external cache and instruction cache are all shared.
// Contexts model the processes of a multiprogrammed workload
// (internal/scenario): only one runs on a hierarchy at a time, and every
// cache effect one context leaves behind — pollution, write-backs,
// PID-tagged residency — is visible to the next, which is exactly the
// interference the scenario experiments measure.
func NewContext(host *Machine, consoleOut io.Writer) *Machine {
	m := &Machine{Cfg: host.Cfg, Mem: host.Mem, Bus: host.Bus, ECache: host.ECache, ICache: host.ICache}
	var set coproc.Set
	if !m.Cfg.NoFPU {
		m.FPU = coproc.NewFPU()
		set.Attach(1, m.FPU)
	}
	m.IntC = &coproc.IntController{}
	set.Attach(2, m.IntC)
	if consoleOut == nil {
		consoleOut = &m.out
	}
	m.Console = &coproc.Console{Out: consoleOut}
	set.Attach(7, m.Console)

	m.CPU = pipeline.New(m.Cfg.Pipeline, m.ICache, m.ECache, &set)
	return m
}

// Load installs an assembled image and resets the CPU to its entry point
// (the "main" symbol when present, else the image base).
func (m *Machine) Load(im *asm.Image) {
	m.Image = im
	m.Mem.LoadImage(im.Base, im.Words)
	entry := im.Base
	if e, ok := im.Symbols["main"]; ok {
		entry = e
	}
	m.CPU.Reset(entry)
	m.Console.Halted = false
}

// LoadSource assembles src at address 0 and loads it.
func (m *Machine) LoadSource(src string) error {
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		return err
	}
	m.Load(im)
	return nil
}

// ErrNotHalted marks the resumable cycle-limit condition: the program did
// not halt within the budget Run was given, but the machine is in a sound
// state and a further Run call continues exactly where this one stopped.
// Callers that slice long simulations into chunks (the experiment runners)
// must test for it with errors.Is and treat every other error as a genuine,
// non-resumable machine fault.
var ErrNotHalted = errors.New("cycle limit reached before halt")

// runawaySlack is how far past the end of the loaded image the PC may
// wander before Run declares a runaway fault. The pipeline legitimately
// fetches a few words beyond the final halt while it drains; anything
// further means control transferred into unloaded memory (a missing halt,
// or a computed jump through a corrupted register), which would otherwise
// burn the whole cycle budget executing zero words and be misreported as
// "no halt".
const runawaySlack = 64

// FaultError is a genuine, non-resumable machine fault: continuing the
// simulation cannot produce a meaningful result.
type FaultError struct {
	PC     isa.Word
	Cycles uint64
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("core: machine fault at pc %#x after %d cycles: %s", e.PC, e.Cycles, e.Reason)
}

// Run executes until the program halts (console coprocessor halt command)
// or maxCycles elapse. It returns the number of cycles consumed and an
// error if the program did not complete: a wrapped ErrNotHalted when the
// cycle limit was hit (resumable — call Run again to continue), or a
// *FaultError when the machine cannot meaningfully continue (the PC ran
// away from the loaded image). A program whose halting step lands exactly
// on the limit has halted: the halt check comes first.
func (m *Machine) Run(maxCycles uint64) (uint64, error) {
	cycles, halted, err := m.RunQuantum(maxCycles)
	if err == nil && !halted {
		err = fmt.Errorf("core: no halt within %d cycles (pc %#x): %w", maxCycles, m.CPU.PC(), ErrNotHalted)
	}
	return cycles, err
}

// RunQuantum executes at most budget cycles and returns the cycles consumed
// plus whether the program has halted. It is Run's scheduler-quantum form:
// hitting the budget is not an error (the scenario scheduler simply resumes
// the context on its next turn). A single Step is indivisible, so the
// quantum may overrun by that step's stall cycles — deterministically,
// which is all the scheduler needs. The only error is a *FaultError
// (runaway PC).
func (m *Machine) RunQuantum(budget uint64) (uint64, bool, error) {
	var cycles uint64
	// Runaway bound: one word past the image plus drain slack. Image bases
	// in single-machine runs are 0 (the exception vector), so only the
	// upper bound can be crossed.
	var runawayAt isa.Word
	if m.Image != nil {
		runawayAt = m.Image.Base + isa.Word(len(m.Image.Words)) + runawaySlack
	}
	for !m.Console.Halted && cycles < budget {
		// Wire the interrupt controller to the CPU's interrupt line, as the
		// off-chip interrupt unit would: level-triggered, deasserted once
		// the handler has drained the pending causes.
		m.CPU.IntLine = m.IntC.Pending()
		cycles += uint64(m.CPU.Step())
		if pc := m.CPU.PC(); runawayAt != 0 && pc >= runawayAt {
			return cycles, false, &FaultError{PC: pc, Cycles: cycles,
				Reason: fmt.Sprintf("pc ran outside the loaded image [%#x, %#x)", m.Image.Base,
					m.Image.Base+isa.Word(len(m.Image.Words)))}
		}
	}
	return cycles, m.Console.Halted, nil
}

// Output returns the program output captured by the internal console buffer
// (empty if New was given an explicit writer).
func (m *Machine) Output() string { return m.out.String() }

// Stats is the aggregated view of a run, combining pipeline, Icache and
// Ecache behaviour into the metrics the paper reports.
type Stats struct {
	Pipeline pipeline.Stats
	Icache   icache.Stats
	Ecache   ecache.Stats
	BusWords uint64
}

// Stats snapshots the machine's counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Pipeline: m.CPU.Stats,
		Icache:   m.ICache.Stats,
		Ecache:   m.ECache.Stats,
		BusWords: m.Bus.WordsCarried,
	}
}

// IfetchCost is the average cost of an instruction fetch in cycles:
// 1 + miss ratio × miss service time (the paper's 1.24 cycles at a 12% miss
// ratio with 2-cycle misses). Guarded: a machine that never fetched costs 0,
// not NaN — every ratio helper on these stats must carry the same guard
// (see TestStatsZeroValueHelpers).
func (s Stats) IfetchCost() float64 {
	if s.Pipeline.Fetches == 0 {
		return 0
	}
	return 1 + float64(s.Icache.StallCycles)/float64(s.Pipeline.Fetches)
}

// CPI is cycles per issued instruction including all memory overheads (the
// paper's ~1.7 cycles per instruction).
func (s Stats) CPI() float64 { return s.Pipeline.CPI() }

// SustainedMIPS converts CPI to sustained MIPS at the design clock.
func (s Stats) SustainedMIPS() float64 {
	cpi := s.CPI()
	if cpi == 0 {
		return 0
	}
	return ClockMHz / cpi
}

// PinBandwidthMW is the average off-chip word traffic in megawords/second
// at the design clock: the paper's memory-bandwidth motivation (experiment
// E9). Off-chip traffic is Icache refill words plus all data accesses.
func (s Stats) PinBandwidthMW() float64 {
	if s.Pipeline.Cycles == 0 {
		return 0
	}
	offChip := s.Icache.WordsFetched + s.Pipeline.Loads + s.Pipeline.Stores + s.Pipeline.FPMemOps
	return ClockMHz * float64(offChip) / float64(s.Pipeline.Cycles)
}

// DemandBandwidthMW is the bandwidth the core would demand with no on-chip
// cache: one instruction word per issued instruction plus all data words,
// over the same cycles — the paper's "average bandwidth of 26 MWords/s".
func (s Stats) DemandBandwidthMW() float64 {
	if s.Pipeline.Cycles == 0 {
		return 0
	}
	demand := s.Pipeline.Fetches + s.Pipeline.Loads + s.Pipeline.Stores + s.Pipeline.FPMemOps
	return ClockMHz * float64(demand) / float64(s.Pipeline.Cycles)
}

// StateAccounting reports the architected state bits in each major block,
// backing the Figure 2 claim that the Icache dominates the chip (two thirds
// of its 150K transistors are in the instruction cache).
func (m *Machine) StateAccounting() (icacheBits, datapathBits int) {
	icacheBits = m.ICache.StateBits()
	// Datapath state: 32 registers + PSW + PSWold + MD + 3 PC chain entries
	// + PC, each 32 bits, plus the pipeline latches (5 stages × ~96 bits of
	// instruction/PC/result state).
	datapathBits = (32+7)*32 + 5*96
	return icacheBits, datapathBits
}
