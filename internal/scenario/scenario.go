// Package scenario is the multiprogramming layer over the single-machine
// simulator: N compiled benchmark programs run as independent machine
// contexts (private CPU and registers, shared memory hierarchy — see
// core.NewContext) under a round-robin scheduler that switches contexts
// every quantum. It measures the question the trace-interleave experiments
// (E6/E10) could only approximate at the address-stream level: what does
// multiprogramming cost at the *execution* level, where the pipeline,
// write-back Ecache and on-chip Icache all see the switches?
//
// Two Icache policies are modeled, selected by spec.ScenarioSpec.Policy:
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
// Programs are packed into disjoint address regions exactly as the
// multiprocessor loader does (internal/multi), so both policies are
// functionally correct by construction — the experiment isolates the *cost*
// of switching, not correctness of isolation. All contexts charge one
// shared attribution ledger; Result.Verify extends the single-machine
// conservation invariant to the scenario:
//
//	ledger total == sum(per-context cycles) + switch cost + flush stalls
package scenario

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// Program is one member of a scenario workload.
type Program struct {
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

	// Cycles is the scenario's total: every context's executed cycles plus
	// SwitchCycles plus FlushStalls — the quantity the shared ledger must
	// conserve against.
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`

	// Obs is the shared-ledger attribution report over the whole scenario.
	Obs *obs.Report `json:"obs"`

	// Windows is the mipsx-obswin/v1 time-series when the spec requests
	// windowed aggregation (ScenarioSpec.Window > 0) and no streaming
	// emitter consumed the windows. omitempty: windowless runs — every
	// pre-existing baseline — serialize exactly as before.
	Windows *obs.WindowDoc `json:"windows,omitempty"`

	// Shared-hierarchy counters, for the pollution analysis.
	IcacheMisses  uint64 `json:"icache_misses"`
	IcacheFetches uint64 `json:"icache_fetches"`
	EcacheWBs     uint64 `json:"ecache_writebacks"`
}

// CPI is cycles per issued instruction including all switch overheads.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// runLimit bounds a scenario run (total cycles across all contexts).
const runLimit = 200_000_000

// Images compiles each program at its packed base: code and static data
// sequentially in low memory (inside the 17-bit absolute addressing window,
// rounded to distinct Icache blocks), heaps and stacks striped above — the
// multi.LoadPrograms discipline, so both cache policies are functionally
// correct by construction. Exported so the experiment layer can fold the
// exact loaded words into a scenario cell's memo key.
func Images(programs []Program, scheme reorg.Scheme) ([]*asm.Image, error) {
	ims := make([]*asm.Image, len(programs))
	base := uint32(0)
	for i, p := range programs {
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

// RunOpts attaches streaming observability to a scenario run. The zero value
// runs unobserved (beyond the always-on shared ledger).
type RunOpts struct {
	// WindowEmit, when set (and the spec's ScenarioSpec.Window > 0),
	// receives each ledger window as it closes instead of retaining the
	// time-series in Result.Windows — O(window) memory on arbitrarily long
	// runs. Typically a WindowStreamWriter's Write.
	WindowEmit func(*obs.Window) error
	// Tracer, when set, records the scenario's pipeline/cache events on a
	// scenario-global clock (cycles across all contexts and switch-time
	// work). Start it streaming first for bounded memory.
	Tracer *obs.Tracer
}

// Run executes the programs as one multiprogrammed scenario on a machine
// realized from ms (whose Scenario field must be set; the branch scheme must
// match the toolchain scheme the programs are compiled with). It returns a
// conservation-verified result; determinism is total — the same programs and
// spec produce a byte-identical Result.
func Run(programs []Program, scheme reorg.Scheme, ms spec.MachineSpec) (*Result, error) {
	return RunWith(programs, scheme, ms, RunOpts{})
}

// RunWith is Run with streaming observability attached.
func RunWith(programs []Program, scheme reorg.Scheme, ms spec.MachineSpec, opts RunOpts) (*Result, error) {
	scn := ms.Scenario
	if scn == nil {
		return nil, fmt.Errorf("scenario: spec has no scenario block")
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("scenario: no programs")
	}
	cfg, err := ms.WithScheme(scheme).Build()
	if err != nil {
		return nil, err
	}

	// The host owns the shared hierarchy; its CPU never runs. Contexts are
	// built over it and loaded with programs packed into disjoint regions,
	// the same layout discipline as multi.LoadPrograms.
	host := core.New(cfg, nil)
	sink := obs.NewMachineSink()
	host.ICache.Obs = sink
	host.ECache.Obs = sink

	// Windowed aggregation: every charge into the shared ledger is keyed to
	// the context that was running (or "scheduler" for switch-time work) and
	// folded into Window-sized slices of the scenario timeline. Contexts are
	// registered up front so breakdown row order follows program order, not
	// scheduling order.
	var win *obs.WindowedLedger
	if scn.Window > 0 {
		win = obs.NewWindowedLedger(obs.MachineCauseNames, uint64(scn.Window))
		for _, p := range programs {
			win.Register(p.Name)
		}
		win.Register(schedulerContext)
		if opts.WindowEmit != nil {
			win.OnWindow(opts.WindowEmit)
		}
		sink.Ledger.AttachWindows(win)
	}

	// Tracing: timestamps come from a scenario-global clock — the cycles all
	// contexts have executed so far plus the in-flight quantum's progress —
	// so events from successive quanta land on one monotonic timeline.
	var clockBase uint64
	var clockCPU *core.Machine
	var clockStart uint64
	if opts.Tracer != nil {
		sink.Tracer = opts.Tracer
		sink.Now = func() uint64 {
			if clockCPU == nil {
				return clockBase
			}
			return clockBase + (clockCPU.CPU.Stats.Cycles - clockStart)
		}
	}

	ims, err := Images(programs, scheme)
	if err != nil {
		return nil, err
	}
	ctxs := make([]*core.Machine, len(programs))
	results := make([]ProgramResult, len(programs))
	for i, p := range programs {
		ctx := core.NewContext(host, nil)
		ctx.Obs = sink
		ctx.CPU.Obs = sink
		ctx.Load(ims[i])
		ctxs[i] = ctx
		results[i] = ProgramResult{Name: p.Name, CodeWords: tinyc.StaticInstructions(ims[i])}
	}

	res := &Result{
		Quantum:    scn.Quantum,
		Policy:     scn.Policy,
		SwitchCost: scn.SwitchCost,
	}

	// switchTo charges the policy's switch-time work when control moves to
	// context next. Under flush the whole hierarchy is scrubbed and the
	// software overhead charged; under pid the Icache just changes its
	// current process ID.
	switchTo := func(next int) {
		res.Switches++
		if win != nil {
			win.SetContext(schedulerContext) // switch-time charges are the scheduler's
		}
		switch scn.Policy {
		case spec.PolicyFlush:
			host.ICache.Flush()
			res.FlushStalls += uint64(host.ECache.Flush())
			sink.Ledger.Add(obs.CauseContextSwitch, uint64(scn.SwitchCost))
			res.SwitchCycles += uint64(scn.SwitchCost)
		case spec.PolicyPID:
			host.ICache.SetPID(next)
		}
	}

	// Round-robin at the quantum until every context halts. The first
	// context starts without a switch charge (the caches are cold anyway);
	// after each turn control moves to the next runnable context, paying the
	// switch cost only when that is a different context.
	halted := make([]bool, len(ctxs))
	remaining := len(ctxs)
	host.ICache.SetPID(0)
	cur := 0
	for remaining > 0 {
		if win != nil {
			win.SetContext(programs[cur].Name)
		}
		clockCPU, clockStart = ctxs[cur], ctxs[cur].CPU.Stats.Cycles
		n, done, err := ctxs[cur].RunQuantum(uint64(scn.Quantum))
		clockBase += n
		clockCPU = nil
		results[cur].Cycles += n
		res.Cycles += n
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", programs[cur].Name, err)
		}
		if done {
			halted[cur] = true
			remaining--
			if remaining == 0 {
				break
			}
		}
		if res.Cycles > runLimit {
			return nil, fmt.Errorf("scenario: no convergence within %d cycles", runLimit)
		}
		next := cur
		for {
			next = (next + 1) % len(ctxs)
			if !halted[next] {
				break
			}
		}
		if next != cur {
			before := res.SwitchCycles + res.FlushStalls
			switchTo(next)
			clockBase += res.SwitchCycles + res.FlushStalls - before
			cur = next
		}
	}

	res.Cycles += res.SwitchCycles + res.FlushStalls
	for i, ctx := range ctxs {
		results[i].Instructions = ctx.CPU.Stats.Issued()
		results[i].Output = ctx.Output()
		res.Instructions += results[i].Instructions
		if want := programs[i].Expect; want != "" && results[i].Output != want {
			return nil, fmt.Errorf("scenario: %s: wrong output %q (want %q)",
				programs[i].Name, results[i].Output, want)
		}
	}
	res.Programs = results
	res.IcacheMisses = host.ICache.Stats.Misses
	res.IcacheFetches = host.ICache.Stats.Fetches
	res.EcacheWBs = host.ECache.Stats.WriteBacks
	res.Obs = sink.Report(res.Cycles, res.Instructions)

	if win != nil {
		win.Flush()
		if err := win.Err(); err != nil {
			return nil, fmt.Errorf("scenario: window emission: %w", err)
		}
		if opts.WindowEmit == nil {
			res.Windows = win.Doc()
		}
	}

	if err := verify(res, ctxs, host, sink); err != nil {
		return nil, err
	}
	return res, nil
}

// schedulerContext keys switch-time ledger charges (the software switch
// overhead and flush write-backs) in the per-context window breakdown.
const schedulerContext = "scheduler"

// verify extends the single-machine attribution invariants to the scenario:
// the shared ledger must conserve against the scenario total, the cache
// seams must balance against the shared caches' stall counters, and the two
// scenario causes must be zero exactly when the policy does not flush.
func verify(r *Result, ctxs []*core.Machine, host *core.Machine, sink *obs.Sink) error {
	l := sink.Ledger
	if got := l.Total(); got != r.Cycles {
		return fmt.Errorf("scenario: attribution conservation violated: ledger %d != cycles %d (Δ%+d)",
			got, r.Cycles, int64(got)-int64(r.Cycles))
	}
	var fetches, dataStalls, coprocStalls uint64
	for _, ctx := range ctxs {
		fetches += ctx.CPU.Stats.Fetches
		dataStalls += ctx.CPU.Stats.DataStalls
		coprocStalls += ctx.CPU.Stats.CoprocStalls
	}
	base := l.Count(obs.CauseExecute) + l.Count(obs.CauseNop) + l.Count(obs.CausePipeFill) +
		l.Count(obs.CauseSquashAnnul) + l.Count(obs.CauseExceptionKill)
	if base != fetches {
		return fmt.Errorf("scenario: base-cause cycles %d != summed pipeline fetches %d", base, fetches)
	}
	ic, ec := host.ICache.Stats, host.ECache.Stats
	if got := l.Count(obs.CauseIcacheMiss) + l.Count(obs.CauseEcacheIFetch); got != ic.StallCycles {
		return fmt.Errorf("scenario: icache seam: %d != %d", got, ic.StallCycles)
	}
	if got := l.Count(obs.CauseEcacheIFetch) + l.Count(obs.CauseEcacheRead) +
		l.Count(obs.CauseEcacheWrite) + l.Count(obs.CauseFlushRefill); got != ec.StallCycles {
		return fmt.Errorf("scenario: ecache seam: %d != %d", got, ec.StallCycles)
	}
	if got := l.Count(obs.CauseEcacheRead) + l.Count(obs.CauseEcacheWrite); got != dataStalls {
		return fmt.Errorf("scenario: data-stall seam: %d != %d", got, dataStalls)
	}
	if got := l.Count(obs.CauseCoprocBusy); got != coprocStalls {
		return fmt.Errorf("scenario: coproc seam: %d != %d", got, coprocStalls)
	}
	cs, fr := l.Count(obs.CauseContextSwitch), l.Count(obs.CauseFlushRefill)
	if cs != r.SwitchCycles {
		return fmt.Errorf("scenario: context-switch cause %d != switch cycles %d", cs, r.SwitchCycles)
	}
	if fr != r.FlushStalls {
		return fmt.Errorf("scenario: flush-refill cause %d != flush stalls %d", fr, r.FlushStalls)
	}
	if r.Policy == spec.PolicyPID && (cs != 0 || fr != 0) {
		return fmt.Errorf("scenario: pid policy charged switch causes (%d/%d); both must stay zero", cs, fr)
	}
	// Windowed runs: conservation must also hold per window, and the
	// time-series must fold back to exactly the flat ledger. (Streaming
	// runs check per-window conservation at rollover instead — the windows
	// are not retained here.)
	if d := r.Windows; d != nil {
		if err := d.Check(); err != nil {
			return err
		}
		if got := d.Total(); got != l.Total() {
			return fmt.Errorf("scenario: windows total %d != ledger total %d", got, l.Total())
		}
		want := l.Map()
		for cause, n := range d.CauseTotals() {
			if want[cause] != n {
				return fmt.Errorf("scenario: windowed cause %q = %d, ledger has %d", cause, n, want[cause])
			}
		}
	}
	return nil
}
