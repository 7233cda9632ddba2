// Package scenario is the system layer over the single-machine simulator:
// compiled benchmark programs mapped onto CPUs over one main memory. Each
// CPU owns a memory hierarchy (bus front-end, Ecache, Icache); each program
// is a machine context on its CPU (private pipeline, registers and
// coprocessors — see core.NewContext). Two mappings exist:
//
//   - Time-sliced (the default): every program on one CPU, sharing its
//     caches under a round-robin scheduler that switches contexts every
//     quantum — the multiprogramming experiment (E12), which measures at
//     the execution level what the trace-interleave experiments (E6/E10)
//     could only approximate at the address-stream level.
//   - Multiprocessor (RunOpts.Multiprocessor): every program on its own
//     CPU, the CPUs' buses arbitrated first-come-first-served on one
//     physical bus — the 6–10-node system MIPS-X was designed for (E11).
//
// One scheduler loop runs both: core.RunQuantum bursts on the lowest-clock
// CPU (ties to the lowest index) until the running context's quantum
// expires, it halts, or another CPU's clock falls behind. With one CPU that
// is plain round-robin; with one program per CPU it is the step order that
// keeps bus arbitration causal (a CPU never acquires the bus in another's
// past).
//
// Two Icache switch policies are modeled, selected by
// spec.ScenarioSpec.Policy:
//
//   - "flush": the OS flushes the hierarchy on every switch — the on-chip
//     Icache is invalidated, dirty Ecache lines
//     are written back (their bus cycles charged to the flush-refill cause),
//     and the scheduler charges SwitchCost cycles of software overhead to
//     the context-switch cause. This is the virtually-addressed,
//     untagged-cache worst case the paper's process-ID discussion warns
//     about.
//   - "pid": Icache lines are tagged with the owning context's process ID
//     (icache.SetPID) and survive switches; the Ecache is physically
//     addressed over disjoint regions and needs no flush; the switch itself
//     is free (the register-bank/PID-register hardware model). The
//     context-switch and flush-refill causes provably stay zero — the
//     conservation check enforces it.
//
// Programs are packed into disjoint address regions (Images), so every
// mapping and policy is functionally correct by construction — the
// experiments isolate the *cost* of sharing. Each CPU has one clock and one
// attribution ledger; the run verifies every CPU's ledger against that
// CPU's clock and caches:
//
//	CPU ledger total == CPU clock == Σ its contexts' cycles + switch cost + flush stalls
package scenario

import (
	"context"
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// Program is one member of a scenario workload.
type Program struct {
	// Name identifies the program in results, errors and window rows, so it
	// must be unique within a run.
	Name   string
	Source string
	// Expect is the console output the program must produce ("" skips the
	// check).
	Expect string
}

// ProgramResult is one member's outcome.
type ProgramResult struct {
	Name string `json:"name"`
	// Cycles the context executed (excluding switch overhead, which belongs
	// to the scheduler, not any one program).
	Cycles uint64 `json:"cycles"`
	// Instructions issued by the context.
	Instructions uint64 `json:"instructions"`
	// CodeWords is the program's static instruction count (the same
	// code-size metric the explorer's Pareto objective uses).
	CodeWords int    `json:"code_words"`
	Output    string `json:"output"`
}

// Result is the serializable outcome of one scenario run.
type Result struct {
	Quantum    int    `json:"quantum"`
	Policy     string `json:"policy"`
	SwitchCost int    `json:"switch_cost"`

	Programs []ProgramResult `json:"programs"`

	// Switches counts scheduler switches between distinct contexts.
	Switches uint64 `json:"switches"`
	// SwitchCycles is the software switch overhead (Switches × SwitchCost
	// under the flush policy, 0 under pid), charged to context-switch.
	SwitchCycles uint64 `json:"switch_cycles"`
	// FlushStalls is the Ecache write-back time spent in switch-time flushes,
	// charged to flush-refill.
	FlushStalls uint64 `json:"flush_stalls"`

	// Cycles is the scenario's total over all CPUs: every context's
	// executed cycles plus SwitchCycles plus FlushStalls — the quantity the
	// ledgers must conserve against.
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`

	// Obs is the attribution report over the whole scenario (every CPU's
	// ledger summed).
	Obs *obs.Report `json:"obs"`

	// Hierarchy counters summed over CPUs, for the pollution analysis.
	IcacheMisses  uint64 `json:"icache_misses"`
	IcacheFetches uint64 `json:"icache_fetches"`
	EcacheWBs     uint64 `json:"ecache_writebacks"`

	// Shared-bus arbitration totals of a multiprocessor run: cycles CPUs
	// queued behind each other, and transfers arbitrated. Zero, and
	// omitted, on one CPU's private bus.
	BusWaitCycles uint64 `json:"bus_wait_cycles,omitempty"`
	BusTransfers  uint64 `json:"bus_transfers,omitempty"`
}

// CPI is cycles per issued instruction including all switch overheads.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// ClusterStats summarizes a multiprocessor run: E11's scaling statistics.
// Its field names are E11's memoized cell format.
type ClusterStats struct {
	Nodes          int
	MakespanCycles uint64  // slowest node's cycle count
	TotalInstr     uint64  // instructions completed across all nodes
	AggregateMIPS  float64 // total work over the makespan at the design clock
	SumNodeMIPS    float64 // sum of each node's own sustained rate
	BusWaitCycles  uint64  // cycles nodes queued for the shared bus
	BusTransfers   uint64
}

// Cluster summarizes a run made with RunOpts.Multiprocessor, in which every
// program had a CPU to itself.
func (r *Result) Cluster() ClusterStats {
	s := ClusterStats{Nodes: len(r.Programs), TotalInstr: r.Instructions,
		BusWaitCycles: r.BusWaitCycles, BusTransfers: r.BusTransfers}
	for _, p := range r.Programs {
		s.MakespanCycles = max(s.MakespanCycles, p.Cycles)
		s.SumNodeMIPS += core.ClockMHz * float64(p.Instructions) / float64(p.Cycles)
	}
	s.AggregateMIPS = core.ClockMHz * float64(s.TotalInstr) / float64(s.MakespanCycles)
	return s
}

// CycleLimit bounds every CPU's clock; a run whose CPU passes it without
// its programs halting fails.
const CycleLimit = 1_000_000_000

// checkEvery is how many cycles the scheduler simulates between checks of
// the run's context — the experiment runners' cancellation granularity.
const checkEvery = 2_000_000

// Images compiles each program at its packed base: code and static data
// sequentially in low memory (inside the 17-bit absolute addressing window,
// rounded to distinct Icache blocks), heaps and stacks striped above, so
// programs sharing one main memory never collide. Names key results, errors
// and window rows, so a repeated name (or the scheduler's own row name) is
// rejected. Exported so the experiment layer can fold the exact loaded words
// into a scenario cell's memo key.
func Images(programs []Program, scheme reorg.Scheme) ([]*asm.Image, error) {
	ims := make([]*asm.Image, len(programs))
	base := uint32(0)
	seen := map[string]bool{schedulerContext: true}
	for i, p := range programs {
		if seen[p.Name] {
			return nil, fmt.Errorf("scenario: program name %q is repeated or reserved", p.Name)
		}
		seen[p.Name] = true
		layout := tinyc.Layout{
			HeapBase: uint32(1<<17 + i*(1<<16)),
			StackTop: uint32(1<<17 + i*(1<<16) + 3<<14),
		}
		im, err := tinyc.BuildLayout(p.Source, scheme, nil, layout, base)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", p.Name, err)
		}
		end := base + uint32(len(im.Words))
		if end >= 1<<16 {
			return nil, fmt.Errorf("scenario: programs overflow the 17-bit code window at %s", p.Name)
		}
		ims[i] = im
		base = (end + 63) &^ 63 // keep programs' code on distinct Icache blocks
	}
	return ims, nil
}

// RunOpts configures a run beyond its spec: the CPU mapping and streaming
// observability. The zero value time-slices every program on one CPU,
// unobserved beyond the always-on ledger.
type RunOpts struct {
	// Multiprocessor gives every program its own CPU, with its own Icache
	// and Ecache, on one arbitrated bus (E11). The spec then needs no
	// scenario block: no CPU ever switches contexts.
	Multiprocessor bool
	// Windows, when set, is attached to the CPU's ledger with every
	// program (and the scheduler) registered as a context, so its windows
	// carry a per-context breakdown; the run flushes it at the end. Its
	// size and its OnWindow emitter are the caller's.
	Windows *obs.WindowedLedger
	// Tracer, when set, records the scenario's cache, coprocessor and
	// control events on the CPU's clock (cycles across all contexts and
	// switch-time work). Start it streaming first for bounded memory. It
	// must not record instruction spans (Instrs): a pipe span is stamped
	// with its context's own cycle count, which is not the CPU's clock and
	// runs backwards at a switch, so RunWith refuses such a tracer.
	Tracer *obs.Tracer
}

// Run executes the programs time-sliced on one CPU of a machine realized
// from ms (whose Scenario field must be set; the branch scheme must match
// the toolchain scheme the programs are compiled with). It returns a
// conservation-verified result; determinism is total — the same programs and
// spec produce a byte-identical Result.
func Run(programs []Program, scheme reorg.Scheme, ms spec.MachineSpec) (*Result, error) {
	return RunWith(context.Background(), programs, scheme, ms, RunOpts{})
}

// cpu is one processor of the system: a memory hierarchy over the shared
// main memory, the contexts mapped onto it, its clock and its ledger.
type cpu struct {
	host  *core.Machine // owns the hierarchy; its own pipeline never runs
	sink  *obs.Sink     // charged by the hierarchy and every context
	win   *obs.WindowedLedger
	ctxs  []*core.Machine // a context's position is its process ID
	names []string

	cur  int    // running context
	live int    // contexts not yet halted
	used uint64 // cycles the running context has had of its quantum
	// clock is the CPU's clock between bursts; base is it minus the running
	// context's cycle count, so now() advances with the pipeline mid-burst.
	clock, base uint64

	switches, switchCycles, flushStalls uint64
}

// newCPU builds a CPU over the shared memory; its bus arbitration and its
// trace timestamps both read its one clock.
func newCPU(cfg core.Config, shared *mem.Memory, arb *mem.Arbiter) *cpu {
	c := &cpu{host: core.NewShared(cfg, shared, arb, nil), sink: obs.NewMachineSink()}
	c.host.Bus.Now = c.now
	c.sink.Now = c.now
	return c
}

// add maps a loaded program onto the CPU as a new context.
func (c *cpu) add(name string, im *asm.Image) *core.Machine {
	m := core.NewContext(c.host, nil)
	m.Observe(c.sink)
	m.Load(im)
	c.ctxs = append(c.ctxs, m)
	c.names = append(c.names, name)
	c.live++
	return m
}

// now is the CPU's live clock: every cycle its contexts have executed plus
// its switch-time work, advancing mid-burst. The bus arbiter and the tracer
// both read it; between bursts it equals clock, which the scheduler reads.
func (c *cpu) now() uint64 { return c.base + c.ctxs[c.cur].CPU.Stats.Cycles }

// rotate ends the running context's turn: control moves round-robin to the
// CPU's next live context, paying the policy's switch-time work when that is
// a different context.
func (c *cpu) rotate(scn spec.ScenarioSpec) {
	c.used = 0
	if c.live == 0 {
		return
	}
	next := (c.cur + 1) % len(c.ctxs)
	for c.ctxs[next].Console.Halted {
		next = (next + 1) % len(c.ctxs)
	}
	if next == c.cur {
		return
	}
	c.switches++
	if c.win != nil {
		c.win.SetContext(schedulerContext) // switch-time charges are the scheduler's
	}
	switch scn.Policy {
	case spec.PolicyFlush:
		// The whole hierarchy is scrubbed and the software overhead charged.
		c.host.ICache.Flush()
		stall := uint64(c.host.ECache.Flush())
		c.sink.Ledger.Add(obs.CauseContextSwitch, uint64(scn.SwitchCost))
		c.switchCycles += uint64(scn.SwitchCost)
		c.flushStalls += stall
		c.clock += uint64(scn.SwitchCost) + stall
	case spec.PolicyPID:
		c.host.ICache.SetPID(next)
	}
	c.cur = next
	c.base = c.clock - c.ctxs[next].CPU.Stats.Cycles
}

// RunWith is Run with a CPU mapping, streaming observability and a context
// whose cancellation stops the run within checkEvery cycles.
func RunWith(ctx context.Context, programs []Program, scheme reorg.Scheme, ms spec.MachineSpec, opts RunOpts) (*Result, error) {
	var scn spec.ScenarioSpec
	quantum := uint64(math.MaxUint64)
	if ms.Scenario != nil {
		scn = *ms.Scenario
		quantum = uint64(scn.Quantum)
	} else if !opts.Multiprocessor {
		return nil, fmt.Errorf("scenario: spec has no scenario block")
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("scenario: no programs")
	}
	if opts.Multiprocessor && (opts.Windows != nil || opts.Tracer != nil) {
		return nil, fmt.Errorf("scenario: windows and tracing observe one CPU, not a multiprocessor")
	}
	if opts.Tracer != nil && opts.Tracer.Instrs {
		return nil, fmt.Errorf("scenario: instruction spans (Tracer.Instrs) carry each context's own clock, not the CPU's; trace a scenario without them")
	}
	cfg, err := ms.WithScheme(scheme).Build()
	if err != nil {
		return nil, err
	}
	ims, err := Images(programs, scheme)
	if err != nil {
		return nil, err
	}

	// One CPU holds every program, or each program gets its own CPU on an
	// arbitrated bus; either way program i lands on CPU i mod #CPUs.
	shared := mem.New()
	ncpu, arb := 1, (*mem.Arbiter)(nil)
	if opts.Multiprocessor {
		ncpu, arb = len(programs), &mem.Arbiter{}
	}
	cpus := make([]*cpu, ncpu)
	for k := range cpus {
		cpus[k] = newCPU(cfg, shared, arb)
	}
	ctxs := make([]*core.Machine, len(programs))
	for i, p := range programs {
		ctxs[i] = cpus[i%ncpu].add(p.Name, ims[i])
	}

	// Windowed aggregation: every charge into the ledger is keyed to the
	// context that was running (or "scheduler" for switch-time work) and
	// folded into fixed-size slices of the CPU's timeline. Contexts are
	// registered up front so breakdown row order follows program order, not
	// scheduling order.
	c0 := cpus[0]
	if w := opts.Windows; w != nil {
		for _, p := range programs {
			w.Register(p.Name)
		}
		w.Register(schedulerContext)
		c0.sink.Ledger.AttachWindows(w)
		c0.win = w
	}
	c0.sink.Tracer = opts.Tracer

	sinceCheck := uint64(checkEvery) // check before the first burst
	for {
		if sinceCheck >= checkEvery {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, c := range cpus {
				if c.live > 0 && c.clock > CycleLimit {
					return nil, fmt.Errorf("scenario: no convergence within %d cycles", CycleLimit)
				}
			}
			sinceCheck = 0
		}
		// One pass picks the lowest-clock CPU with live contexts (ties to
		// the lowest index) and the clock at which another CPU would be
		// picked instead: an earlier CPU's clock, or a later one's plus one.
		var c *cpu
		bound := uint64(math.MaxUint64)
		for _, k := range cpus {
			switch {
			case k.live == 0:
			case c == nil:
				c = k
			case k.clock < c.clock:
				c, bound = k, c.clock
			case k.clock+1 < bound:
				bound = k.clock + 1
			}
		}
		if c == nil {
			break
		}
		budget := min(quantum-c.used, bound-c.clock, checkEvery-sinceCheck)
		if c.win != nil {
			c.win.SetContext(c.names[c.cur])
		}
		n, done, err := c.ctxs[c.cur].RunQuantum(budget)
		c.clock += n
		c.used += n
		sinceCheck += n
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", c.names[c.cur], err)
		}
		if done {
			c.live--
		}
		if done || c.used >= quantum {
			c.rotate(scn)
		}
	}

	res := &Result{
		Quantum:    scn.Quantum,
		Policy:     scn.Policy,
		SwitchCost: scn.SwitchCost,
		Programs:   make([]ProgramResult, len(programs)),
	}
	for i, m := range ctxs {
		p := &res.Programs[i]
		*p = ProgramResult{Name: programs[i].Name, Cycles: m.CPU.Stats.Cycles,
			Instructions: m.CPU.Stats.Issued(), CodeWords: tinyc.StaticInstructions(ims[i]), Output: m.Output()}
		res.Instructions += p.Instructions
		if want := programs[i].Expect; want != "" && p.Output != want {
			return nil, fmt.Errorf("scenario: %s: wrong output %q (want %q)", p.Name, p.Output, want)
		}
	}
	sink := &obs.Sink{Ledger: obs.NewMachineLedger(), Tracer: opts.Tracer}
	for _, c := range cpus {
		res.Cycles += c.clock
		res.Switches += c.switches
		res.SwitchCycles += c.switchCycles
		res.FlushStalls += c.flushStalls
		res.IcacheMisses += c.host.ICache.Stats.Misses
		res.IcacheFetches += c.host.ICache.Stats.Fetches
		res.EcacheWBs += c.host.ECache.Stats.WriteBacks
		for i, cc := range c.sink.Ledger.Causes() {
			sink.Ledger.Add(obs.Cause(i), cc.Cycles)
		}
	}
	if arb != nil {
		res.BusWaitCycles, res.BusTransfers = arb.WaitCycles, arb.Transfers
	}
	res.Obs = sink.Report(res.Cycles, res.Instructions)

	if w := c0.win; w != nil {
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("scenario: windows: %w", err)
		}
	}

	for i, c := range cpus {
		if err := c.verify(res); err != nil {
			return nil, fmt.Errorf("scenario: cpu %d: %w", i, err)
		}
	}
	return res, nil
}

// schedulerContext keys switch-time ledger charges (the software switch
// overhead and flush write-backs) in the per-context window breakdown.
const schedulerContext = "scheduler"

// verify extends the single-machine attribution invariants to the CPU: its
// ledger must conserve against its clock and balance every seam against its
// caches' stall counters (core.VerifyLedger), the two switch causes must
// equal the switch-time work the scheduler did, and both must be zero when
// the policy does not flush.
func (c *cpu) verify(r *Result) error {
	l := c.sink.Ledger
	if err := core.VerifyLedger(l, c.clock, c.ctxs...); err != nil {
		return err
	}
	cs, fr := l.Count(obs.CauseContextSwitch), l.Count(obs.CauseFlushRefill)
	if cs != c.switchCycles {
		return fmt.Errorf("context-switch cause %d != switch cycles %d", cs, c.switchCycles)
	}
	if fr != c.flushStalls {
		return fmt.Errorf("flush-refill cause %d != flush stalls %d", fr, c.flushStalls)
	}
	if r.Policy == spec.PolicyPID && (cs != 0 || fr != 0) {
		return fmt.Errorf("pid policy charged switch causes (%d/%d); both must stay zero", cs, fr)
	}
	return nil
}
