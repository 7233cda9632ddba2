package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
	"repro/internal/vaxlike"
)

// runLimit bounds every experiment run.
const runLimit = 50_000_000

// vaxInstrLimit bounds every run on the CISC reference machine, in retired
// instructions. No benchmark comes near it (the largest retires about
// 225,000), and with one bound every experiment's run of a program has one
// memo key.
const vaxInstrLimit = 200_000_000

// runMachine runs m until it halts or runLimit cycles pass, accounting the
// simulated cycles to the running cell. A genuine machine fault (runaway
// PC, and whatever fault classes the core grows) returns as soon as it
// happens with its own message, instead of burning the rest of the
// 50M-cycle budget and surfacing as a bogus "no halt".
//
// Every machine gets a ledger-only observability sink (unless the caller
// attached its own, e.g. with a tracer): the per-cause breakdown is
// accounted next to the cycles on every exit path, and on a successful halt
// the attribution conservation invariants are verified — so every benchmark
// a table runs is also a standing conservation check.
func runMachine(ctx context.Context, m *core.Machine) error {
	if m.Obs == nil {
		m.Observe(obs.NewMachineSink())
	}
	n, err := m.Run(runLimit)
	account(ctx, n, m.Obs.Ledger.Map())
	switch {
	case err == nil:
		return m.VerifyAttribution()
	case errors.Is(err, core.ErrNotHalted):
		return fmt.Errorf("no halt within %d cycles (pc %#x)", runLimit, m.CPU.PC())
	default:
		return fmt.Errorf("%w (%d cycles simulated)", err, n)
	}
}

// runVAX runs the CISC reference machine until it halts or vaxInstrLimit
// instructions retire, accounting its cycles and their attribution to the
// running cell on every exit path.
func runVAX(ctx context.Context, vm *vaxlike.Machine) error {
	if vm.Led == nil {
		vm.Observe(vaxlike.NewVAXLedger())
	}
	err := vm.Run(vaxInstrLimit)
	account(ctx, vm.Stats.Cycles, vm.Led.Map())
	if err != nil {
		return err
	}
	return vm.VerifyAttribution()
}

// buildCache memoizes unprofiled tinyc builds keyed by (benchmark, scheme):
// several experiments compile the same suite under the same scheme, and
// images are immutable once built (Machine.Load copies the words into the
// machine's own memory), so cells can share them freely.
var buildCache sync.Map // buildKey -> *asm.Image

type buildKey struct {
	name   string
	scheme reorg.Scheme
}

func buildCached(b tinyc.Benchmark, scheme reorg.Scheme) (*asm.Image, error) {
	key := buildKey{b.Name, scheme}
	if v, ok := buildCache.Load(key); ok {
		return v.(*asm.Image), nil
	}
	im, err := tinyc.Build(b.Source, scheme, nil)
	if err != nil {
		return nil, err
	}
	// Build is deterministic, so a racing duplicate is identical; the first
	// store wins and everyone shares one image.
	v, _ := buildCache.LoadOrStore(key, im)
	return v.(*asm.Image), nil
}

// run builds a tinyc benchmark for the spec's branch scheme and runs it to
// completion on the machine the spec names (one scheme drives both, so
// slots always match the toolchain), and returns its result. An
// unprofiled run whose identity the cell's engine has captured returns the
// capture's result instead of simulating it again (captures.go).
func run(ctx context.Context, b tinyc.Benchmark, prof reorg.Profile, ms spec.MachineSpec) (RunResult, error) {
	if prof == nil {
		c, err := captured(ctx, b, ms, false)
		if err != nil {
			return RunResult{}, err
		}
		if c != nil {
			return c.res, nil
		}
	}
	_, res, err := simulate(ctx, b, prof, ms, nil)
	return res, err
}

// simulate is one run of b: built for the spec's scheme (with profile
// feedback when prof is set), run on the machine the spec names under the
// PC profile, and checked — conservation (runMachine), the expected output
// and the static-cost cross-check. A non-nil rec records its branches.
func simulate(ctx context.Context, b tinyc.Benchmark, prof reorg.Profile, ms spec.MachineSpec, rec *trace.Recorder) (*asm.Image, RunResult, error) {
	var im *asm.Image
	var err error
	if prof == nil {
		im, err = buildCached(b, ms.Branch)
	} else {
		im, err = tinyc.Build(b.Source, ms.Branch, prof)
	}
	if err != nil {
		return nil, RunResult{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	m := core.New(ms, nil)
	m.Load(im)
	pcProf := obs.NewPCProfile(uint32(im.Base), len(im.Words))
	m.CPU.Prof = pcProf
	if rec != nil {
		rec.Attach(m.CPU)
	}
	if err := runMachine(ctx, m); err != nil {
		return nil, RunResult{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	if want := b.Expect(); m.Output() != want {
		return nil, RunResult{}, fmt.Errorf("%s: wrong output %q (want %q)", b.Name, m.Output(), want)
	}
	// Every live cell doubles as a standing cross-check of the static cost
	// model (memo replays skip it, like the conservation check: the result
	// being replayed already passed).
	if err := lint.CrossCheck(im, ms.Branch.Slots, pcProf, m.Obs.Ledger, m.CPU.Stats.Exceptions); err != nil {
		return nil, RunResult{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return im, machineResult(m), nil
}

// runProfiled rebuilds b with the branch profile of its unprofiled run's
// capture and runs the result — the paper's "static prediction (possibly
// with profiling)" toolchain.
func runProfiled(ctx context.Context, b tinyc.Benchmark, ms spec.MachineSpec) (RunResult, error) {
	c, err := captured(ctx, b, ms, true)
	if err != nil {
		return RunResult{}, err
	}
	return run(ctx, b, trace.Profile(c.im, c.events), ms)
}

// ---------------------------------------------------------------------------
// Serializable cell results and memoizable cell constructors. Experiments
// route machine results through these structs instead of holding live
// *core.Machine handles, so a content-addressed replay is byte-identical
// to a live run (the structs carry everything any experiment reads).

// RunResult is the serializable outcome of one benchmark (or assembly
// kernel) run on the MIPS-X machine.
type RunResult struct {
	Stats core.Stats `json:"stats"`
	// CoprocOps counts operations dispatched per coprocessor slot (E5's
	// transfer accounting).
	CoprocOps [isa.NumCoprocessors]uint64 `json:"coproc_ops"`
	// Output is the program's console output (already checked against the
	// benchmark's expectation during the live run).
	Output string `json:"output"`
	// Regs is the architected register file at halt and PSW the final
	// status word (E8 reads handler counters and the sticky-overflow bit
	// out of them).
	Regs [32]isa.Word `json:"regs"`
	PSW  isa.PSW      `json:"psw"`
	// SquashEvents counts squash-FSM triggers by cause (E8's shared-FSM
	// accounting).
	SquashEvents [2]uint64 `json:"squash_events"`
	// Obs is the machine's cycle-attribution report (conservation-checked by
	// runMachine before the result is built). Part of the cached cell result,
	// so a memo replay carries the same breakdown as the live run.
	Obs *obs.Report `json:"obs,omitempty"`
}

// machineResult snapshots everything the experiments read from a finished
// machine.
func machineResult(m *core.Machine) RunResult {
	r := RunResult{
		Stats:        m.Stats(),
		CoprocOps:    m.CPU.Coprocs.Ops,
		Output:       m.Output(),
		PSW:          m.CPU.PSW(),
		SquashEvents: m.CPU.Squash.Events,
		Obs:          m.ObsReport(),
	}
	for i := range r.Regs {
		r.Regs[i] = m.CPU.Reg(isa.Reg(i))
	}
	return r
}

// VAXResult is the serializable outcome of one run on the CISC reference
// machine.
type VAXResult struct {
	Stats   vaxlike.Stats `json:"stats"`
	CodeLen int           `json:"code_len"`
}

// benchKey hashes the full input closure of a tinyc benchmark run: the
// assembled program words (covering source, compiler and reorganizer
// output), the scheme parameters, and the machine spec's digest — run()
// builds the machine from exactly the spec hashed here, and core.New reads
// nothing else. A profiled run's
// profile is itself a deterministic function of this closure (it is
// measured by simulating the unprofiled image under the same spec), so the
// closure needs no separate profile hash — the kind string distinguishes
// the two pipelines.
func benchKey(kind string, b tinyc.Benchmark, ms spec.MachineSpec) (string, error) {
	k := newKey(kind)
	if err := k.bench(b, ms); err != nil {
		return "", err
	}
	return k.sum(), nil
}

// bench hashes one benchmark run's closure (benchKey's fields) into k.
func (k *keyBuilder) bench(b tinyc.Benchmark, ms spec.MachineSpec) error {
	im, err := buildCached(b, ms.Branch)
	if err != nil {
		return err
	}
	k.str("bench", b.Name)
	k.str("source", b.Source)
	k.str("scheme", ms.Branch.String())
	k.num("image-base", uint64(im.Base)).words("image", im.Words)
	k.str("spec", ms.Digest())
	return nil
}

// benchCell builds a memoizable cell that runs benchmark b on the machine
// the spec names, built for its scheme (with profile feedback when
// profiled), and deposits the result in *out.
func benchCell(id string, b tinyc.Benchmark, profiled bool, ms spec.MachineSpec, out *RunResult) Cell {
	kind := "run"
	if profiled {
		kind = "run-profiled"
	}
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) (err error) {
			if profiled {
				*out, err = runProfiled(ctx, b, ms)
			} else {
				*out, err = run(ctx, b, nil, ms)
			}
			return err
		},
		Memo: &CellMemo{
			Key: func() (string, error) { return benchKey(kind, b, ms) },
			Out: out,
		},
	}
}

// asmCell builds a memoizable cell that assembles and runs hand-written
// (already scheduled) assembly on the machine the spec names.
func asmCell(id, src string, ms spec.MachineSpec, out *RunResult) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			m, err := runAsm(ctx, src, ms)
			if err != nil {
				return err
			}
			*out = machineResult(m)
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				im, err := asm.AssembleSource(src, 0)
				if err != nil {
					return "", err
				}
				k := newKey("asm")
				k.str("source", src)
				k.num("image-base", uint64(im.Base)).words("image", im.Words)
				k.str("spec", ms.Digest())
				return k.sum(), nil
			},
			Out: out,
		},
	}
}

// vaxCell builds a memoizable cell that compiles src for the CISC
// reference machine and runs it to completion (bounded by vaxInstrLimit).
func vaxCell(id, src string, out *VAXResult) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			vm, err := tinyc.BuildVAX(src)
			if err != nil {
				return err
			}
			if err := runVAX(ctx, vm); err != nil {
				return err
			}
			*out = VAXResult{Stats: vm.Stats, CodeLen: len(vm.Code)}
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				// The VAX compiler is deterministic over the source, so the
				// source plus the instruction bound is the whole closure.
				k := newKey("vax")
				k.str("source", src)
				k.num("max-instr", vaxInstrLimit)
				return k.sum(), nil
			},
			Out: out,
		},
	}
}

// suiteStats aggregates pipeline stats over a set of benchmarks.
type suiteStats struct {
	Branches, Wasted, SlotNops      uint64
	Retired, Nops, Squashed, Cycles uint64
	Loads, Stores, Fetches          uint64
	CmpEq, CmpSign, CmpZero         uint64
	IcacheStalls, DataStalls        uint64
}

func (s *suiteStats) add(r *RunResult) {
	p := r.Stats.Pipeline
	s.Branches += p.Branches
	s.Wasted += p.BranchWasted
	s.SlotNops += p.BranchSlotNops
	s.Retired += p.Retired
	s.Nops += p.Nops
	s.Squashed += p.Squashed
	s.Cycles += p.Cycles
	s.Loads += p.Loads
	s.Stores += p.Stores
	s.Fetches += p.Fetches
	s.CmpEq += p.BranchCmpEq
	s.CmpSign += p.BranchCmpSign
	s.CmpZero += p.BranchCmpZero
	s.IcacheStalls += p.IcacheStalls
	s.DataStalls += p.DataStalls
}

func (s *suiteStats) cyclesPerBranch() float64 {
	if s.Branches == 0 {
		return 0
	}
	return 1 + float64(s.Wasted)/float64(s.Branches)
}

func (s *suiteStats) issued() uint64 { return s.Retired + s.Squashed }

func (s *suiteStats) nopFraction() float64 {
	if s.issued() == 0 {
		return 0
	}
	return float64(s.Nops+s.Squashed) / float64(s.issued())
}

func (s *suiteStats) cpi() float64 {
	if s.issued() == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.issued())
}

// suite is one pass over a benchmark set on one machine: a memoizable
// cell per benchmark, named prefix/<benchmark>, and the result slots they
// fill, index-aligned with the benchmarks. The experiment submits the cells
// in its own Run and folds the results afterwards.
type suite struct {
	cells []Cell
	rs    []RunResult
}

func newSuite(prefix string, benches []tinyc.Benchmark, profiled bool, ms spec.MachineSpec) suite {
	s := suite{cells: make([]Cell, len(benches)), rs: make([]RunResult, len(benches))}
	for i, b := range benches {
		s.cells[i] = benchCell(prefix+"/"+b.Name, b, profiled, ms, &s.rs[i])
	}
	return s
}

// stats aggregates the results in benchmark order.
func (s suite) stats() suiteStats {
	var agg suiteStats
	for i := range s.rs {
		agg.add(&s.rs[i])
	}
	return agg
}

// runAsm assembles and runs hand-written (already scheduled) assembly on
// the machine the spec names.
func runAsm(ctx context.Context, src string, ms spec.MachineSpec) (*core.Machine, error) {
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		return nil, err
	}
	m := core.New(ms, nil)
	m.Load(im)
	pcProf := obs.NewPCProfile(uint32(im.Base), len(im.Words))
	m.CPU.Prof = pcProf
	if err := runMachine(ctx, m); err != nil {
		return nil, err
	}
	if err := lint.CrossCheck(im, ms.Branch.Slots, pcProf, m.Obs.Ledger, m.CPU.Stats.Exceptions); err != nil {
		return nil, err
	}
	return m, nil
}

// table1Benchmarks is the workload for the branch-scheme study: the integer
// suite (Pascal- and Lisp-class programs), matching the paper's use of its
// benchmark set for Table 1.
func table1Benchmarks() []tinyc.Benchmark {
	var out []tinyc.Benchmark
	for _, b := range tinyc.Benchmarks() {
		if b.Class != "fp" {
			out = append(out, b)
		}
	}
	return out
}
