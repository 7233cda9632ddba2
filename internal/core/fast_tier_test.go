package core

// The fast tier's contract is invisibility: with Config.FastTier on, every
// architecturally visible outcome — cycle count, per-unit statistics,
// registers, PSW, console output, and the attribution ledger — must be
// identical to the cycle-accurate pipeline's, for any program and any
// configuration. These tests pin that contract at the places it is most
// likely to fracture: the fallback seams where a compiled block run must
// hand state back to the pipeline (icache misses mid-block, exceptions
// raised in branch delay slots, squash windows, self-modifying stores).

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/refmodel"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// runBoth executes the same image under the same config twice — fast tier
// off, then on — with full observation attached, and fails the test on any
// visible divergence. It returns both machines for case-specific checks.
func runBoth(t *testing.T, cfg Config, load func(*Machine), limit uint64) (acc, fast *Machine) {
	t.Helper()
	run := func(useFast bool) *Machine {
		c := cfg
		c.FastTier = useFast
		m := New(c, nil)
		m.Observe(obs.NewMachineSink())
		load(m)
		if _, err := m.Run(limit); err != nil {
			t.Fatalf("fast=%v: %v", useFast, err)
		}
		if err := m.VerifyAttribution(); err != nil {
			t.Fatalf("fast=%v: attribution broken: %v", useFast, err)
		}
		return m
	}
	acc, fast = run(false), run(true)
	diffMachines(t, acc, fast)
	return acc, fast
}

// diffMachines compares everything the fast tier promises to preserve.
func diffMachines(t *testing.T, acc, fast *Machine) {
	t.Helper()
	if acc.CPU.Stats != fast.CPU.Stats {
		t.Errorf("pipeline stats diverged:\naccurate %+v\nfast     %+v", acc.CPU.Stats, fast.CPU.Stats)
	}
	if acc.ICache.Stats != fast.ICache.Stats {
		t.Errorf("icache stats diverged:\naccurate %+v\nfast     %+v", acc.ICache.Stats, fast.ICache.Stats)
	}
	if acc.ECache.Stats != fast.ECache.Stats {
		t.Errorf("ecache stats diverged:\naccurate %+v\nfast     %+v", acc.ECache.Stats, fast.ECache.Stats)
	}
	if acc.CPU.PC() != fast.CPU.PC() || acc.CPU.PSW() != fast.CPU.PSW() {
		t.Errorf("pc/psw diverged: accurate pc=%#x psw=%#x, fast pc=%#x psw=%#x",
			acc.CPU.PC(), acc.CPU.PSW(), fast.CPU.PC(), fast.CPU.PSW())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if a, f := acc.CPU.Reg(r), fast.CPU.Reg(r); a != f {
			t.Errorf("r%d diverged: accurate %#x, fast %#x", r, a, f)
		}
	}
	if acc.Output() != fast.Output() {
		t.Errorf("output diverged: accurate %q, fast %q", acc.Output(), fast.Output())
	}
	am, fm := acc.Obs.Ledger.Map(), fast.Obs.Ledger.Map()
	if len(am) != len(fm) {
		t.Errorf("ledger cause sets diverged: accurate %v, fast %v", am, fm)
	}
	for cause, n := range am {
		if fm[cause] != n {
			t.Errorf("ledger[%s] diverged: accurate %d, fast %d", cause, n, fm[cause])
		}
	}
}

// TestFastTierBenchmarkEquivalence runs every tinyc benchmark under every
// Table 1 branch scheme both ways. This is the in-process form of the CI
// fast-gate differential wall, plus an engagement floor so the tier cannot
// silently rot into a no-op that trivially passes every differential.
func TestFastTierBenchmarkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid in -short mode")
	}
	var steps, retired uint64
	for _, b := range tinyc.Benchmarks() {
		for _, s := range reorg.Table1Schemes() {
			im, err := tinyc.Build(b.Source, s, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s, err)
			}
			cfg := DefaultConfig()
			cfg.Pipeline.BranchSlots = s.Slots
			t.Run(b.Name+"/"+s.String(), func(t *testing.T) {
				_, fast := runBoth(t, cfg, func(m *Machine) { m.Load(im) }, 200_000_000)
				if fast.Output() != b.Expect() {
					t.Errorf("wrong output %q, want %q", fast.Output(), b.Expect())
				}
				steps += fast.CPU.FastSteps
				retired += fast.CPU.Stats.Retired
			})
		}
	}
	if retired > 0 && float64(steps)/float64(retired) < 0.5 {
		t.Errorf("fast tier engagement %.1f%% of retirements — tier effectively disabled",
			100*float64(steps)/float64(retired))
	}
}

// TestFastTierFallbackSeams forces a block exit at each boundary the tier
// must hand back to the pipeline, and asserts exact agreement on state and
// ledger. Each case also requires the tier to have actually engaged, so a
// lint rejection cannot turn a seam test vacuous.
func TestFastTierFallbackSeams(t *testing.T) {
	// A complete trap handler at address 0 (the exception vector): counts
	// traps in r23, advances the PC chain past the faulting instruction,
	// and restarts with the paper's jpc/jpc/jpcrs sequence.
	const handler = `
	handler:
		movs r20, pc0
		movs r21, pc1
		movs r22, pc2
		addi r23, r23, 1
		addi r20, r20, 1
		addi r21, r21, 1
		addi r22, r22, 1
		mots pc0, r20
		mots pc1, r21
		mots pc2, r22
		nop
		nop
		jpc
		jpc
		jpcrs
	`
	cases := []struct {
		name string
		cfg  func() Config
		src  string
		// golden: the accurate run must also print what the sequential
		// golden model prints.
		golden bool
	}{
		{
			// A one-block direct-mapped icache whose 4-word blocks cannot
			// hold the 7-word loop body: every iteration misses mid-block,
			// so compiled runs are cut short by fetch-window exhaustion.
			name: "icache-miss-mid-block",
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Icache.Sets = 1
				cfg.Icache.Ways = 1
				cfg.Icache.BlockWords = 4
				cfg.Icache.MissPenalty = 8
				return cfg
			},
			src: `
	main:	addi r1, r0, 50
	loop:	addi r2, r2, 1
		addi r3, r3, 2
		addi r4, r4, 3
		addi r5, r5, 4
		addi r6, r6, 5
		addi r1, r1, -1
		bne r1, r0, loop
		nop
		nop
		putw r2
		halt
	`,
		},
		{
			// Overflow trap raised by the add sitting in a taken branch's
			// delay slot: the exception fires while the PC chain spans the
			// branch, the nastiest restart case the paper's mechanism has.
			name: "exception-in-delay-slot",
			cfg:  DefaultConfig,
			src: handler + `
	main:	li  r9, 0x7FFFFFFF
		li  r10, 517          ; system | ovf trap | PC-chain shifting
		mots psw, r10
		nop
		nop
		addi r1, r0, 3
	loop:	addi r2, r2, 1
		addi r1, r1, -1
		bne r1, r0, loop
		add r11, r9, r9       ; delay slot: overflows → trap mid-shadow
		nop
		putw r2
		halt
	`,
		},
		{
			// The rejected sticky-overflow design: no trap, but the PSW
			// sticky bit must be set by the overflowing add even when that
			// add retires inside a compiled run.
			name: "sticky-overflow",
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Pipeline.StickyOverflow = true
				return cfg
			},
			src: `
	main:	li  r9, 0x7FFFFFFF
		addi r1, r0, 4
	loop:	add r11, r9, r9       ; overflows every iteration
		addi r2, r2, 1
		addi r1, r1, -1
		bne r1, r0, loop
		nop
		nop
		movs r12, psw
		putw r2
		halt
	`,
		},
		{
			// halt sitting in a squashing branch's shadow: squashed on
			// every taken iteration, executed for real on fall-through —
			// the tier must stop the machine at exactly the same cycle.
			name: "halt-in-squash-window",
			cfg:  DefaultConfig,
			src: `
	main:	addi r1, r0, 20
	loop:	addi r2, r2, 3
		addi r3, r3, 1
		addi r4, r4, 2
		addi r5, r5, 4
		addi r6, r6, 5
		addi r7, r7, 6
		addi r8, r8, 7
		addi r1, r1, -1
		bne.sq r1, r0, loop
		halt                  ; squashed while looping, real at the end
		nop
	`,
		},
		{
			// A store rewrites an instruction inside the hot loop itself:
			// the tier's dirty-range watch must revalidate and recompile,
			// or it would keep executing the stale pre-patch block.
			name: "self-modifying-store",
			cfg:  DefaultConfig,
			src: `
	main:	la   r1, patch
		la   r2, alt
		ld   r3, 0(r2)
		addi r4, r0, 6
	loop:
	patch:	addi r5, r5, 1        ; overwritten by the alt instruction
		st   r3, 0(r1)
		addi r4, r4, -1
		bne  r4, r0, loop
		nop
		nop
		putw r5
		halt
	alt:	addi r5, r5, 7
		halt
	`,
			golden: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			acc, fast := runBoth(t, cfg, func(m *Machine) {
				if err := m.LoadSource(tc.src); err != nil {
					t.Fatalf("assemble: %v", err)
				}
			}, 1_000_000)
			if fast.CPU.FastSteps == 0 {
				t.Errorf("fast tier never engaged — seam untested (lint rejection?)")
			}
			if tc.golden {
				im, err := asm.AssembleSource(tc.src, 0)
				if err != nil {
					t.Fatal(err)
				}
				ref := refmodel.New(cfg.Pipeline.BranchSlots, im.Base, im.Words)
				if err := ref.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				if acc.Output() != ref.Out.String() {
					t.Errorf("pipeline printed %q, golden model %q", acc.Output(), ref.Out.String())
				}
			}
		})
	}
}

// TestFastTierObservationPurity re-proves the observation-purity invariant
// with the fast tier on: attaching a sink must not change a single cycle or
// counter. Two observation shapes matter. A ledger + PC profile is served
// by the tier's bulk paths, so the tier must stay engaged and still change
// nothing. An instruction-granular tracer disengages the tier by design
// (per-cycle events cannot be charged in bulk) — engagement differs, but
// every architectural number must still be identical.
func TestFastTierObservationPurity(t *testing.T) {
	im, err := tinyc.Build(tinyc.Benchmarks()[0].Source, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shape string) *Machine {
		cfg := DefaultConfig()
		cfg.FastTier = true
		m := New(cfg, nil)
		switch shape {
		case "ledger":
			m.Observe(obs.NewMachineSink())
			m.CPU.Prof = obs.NewPCProfile(uint32(im.Base), len(im.Words))
		case "tracer":
			s := obs.NewMachineSink()
			s.Tracer = &obs.Tracer{Instrs: true}
			m.Observe(s)
		}
		m.Load(im)
		if _, err := m.Run(200_000_000); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if m.Obs != nil {
			if err := m.VerifyAttribution(); err != nil {
				t.Errorf("%s: attribution broken under fast tier: %v", shape, err)
			}
		}
		return m
	}
	plain := run("plain")
	if plain.CPU.FastSteps == 0 {
		t.Fatal("fast tier never engaged")
	}
	check := func(shape string, o *Machine) {
		t.Helper()
		if plain.CPU.Stats != o.CPU.Stats {
			t.Errorf("%s: pipeline stats changed under observation:\nplain    %+v\nobserved %+v",
				shape, plain.CPU.Stats, o.CPU.Stats)
		}
		if plain.ICache.Stats != o.ICache.Stats {
			t.Errorf("%s: icache stats changed under observation", shape)
		}
		if plain.ECache.Stats != o.ECache.Stats {
			t.Errorf("%s: ecache stats changed under observation", shape)
		}
		if plain.Output() != o.Output() {
			t.Errorf("%s: output changed under observation", shape)
		}
	}
	ledger := run("ledger")
	check("ledger", ledger)
	if plain.CPU.FastSteps != ledger.CPU.FastSteps {
		t.Errorf("ledger observation changed fast engagement: %d vs %d",
			plain.CPU.FastSteps, ledger.CPU.FastSteps)
	}
	tracer := run("tracer")
	check("tracer", tracer)
	if tracer.CPU.FastSteps != 0 {
		t.Errorf("instruction tracer did not disengage the tier (%d fast steps): per-cycle trace events would be missing",
			tracer.CPU.FastSteps)
	}
}

// TestFastTierQuantumSeam is the scheduler seam: driving a fast-tier
// machine through RunQuantum with a budget that expires mid-basic-block
// (a prime quantum, so expiries land at arbitrary points) must be exactly
// as invisible as the tier itself — identical stats, registers, output and
// ledger versus (a) the accurate pipeline driven by the same quanta and
// (b) an uninterrupted fast-tier run. This is what lets the scenario
// scheduler preempt contexts at any quantum without a correctness tax.
func TestFastTierQuantumSeam(t *testing.T) {
	var bench tinyc.Benchmark
	for _, b := range tinyc.Benchmarks() {
		if b.Name == "sieve" {
			bench = b
		}
	}
	im, err := tinyc.Build(bench.Source, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	newM := func(useFast bool) *Machine {
		cfg := DefaultConfig()
		cfg.FastTier = useFast
		m := New(cfg, nil)
		m.Observe(obs.NewMachineSink())
		m.Load(im)
		return m
	}
	const quantum = 57 // prime: expiries never align with block boundaries
	byQuanta := func(useFast bool) *Machine {
		m := newM(useFast)
		for i := 0; ; i++ {
			if i > 10_000_000 {
				t.Fatalf("fast=%v: no halt after %d quanta", useFast, i)
			}
			_, halted, err := m.RunQuantum(quantum)
			if err != nil {
				t.Fatalf("fast=%v: %v", useFast, err)
			}
			if halted {
				break
			}
		}
		if err := m.VerifyAttribution(); err != nil {
			t.Fatalf("fast=%v: attribution broken: %v", useFast, err)
		}
		return m
	}

	acc, fast := byQuanta(false), byQuanta(true)
	diffMachines(t, acc, fast)
	if fast.CPU.FastSteps == 0 {
		t.Fatal("fast tier never engaged under quantum driving — seam test vacuous")
	}
	if fast.Output() != bench.Expect() {
		t.Errorf("wrong output %q, want %q", fast.Output(), bench.Expect())
	}

	// Quantum-driving itself must be invisible: an uninterrupted run agrees.
	whole := newM(true)
	if _, err := whole.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if err := whole.VerifyAttribution(); err != nil {
		t.Fatal(err)
	}
	diffMachines(t, whole, fast)
	if whole.CPU.FastBudget != 0 || fast.CPU.FastBudget != 0 {
		t.Error("FastBudget left set after a run")
	}
}

// TestContextsNeverInstallFastTier: scenario contexts share one memory and
// hierarchy, so the fast tier (whose store-filter assumes a private image)
// must refuse to install — contexts run cycle-accurate by construction.
func TestContextsNeverInstallFastTier(t *testing.T) {
	var bench tinyc.Benchmark
	for _, b := range tinyc.Benchmarks() {
		if b.Name == "sieve" {
			bench = b
		}
	}
	im, err := tinyc.Build(bench.Source, reorg.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FastTier = true
	host := New(cfg, nil)
	ctx := NewContext(host, nil)
	ctx.Load(im)
	if ctx.CPU.Fast != nil {
		t.Fatal("shared-memory context installed the fast tier")
	}
}
