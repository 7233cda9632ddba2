// Package trace provides the trace infrastructure behind the paper's
// numbers: the MIPS-X team drove their cache and branch studies with
// instruction traces from the compiler/simulator system ("The
// compiler/simulator system generated instruction traces that we used to
// gather cache statistics and fine tune the architecture"), plus larger
// ATUM traces for external-cache effects.
//
// Two sources are provided:
//
//   - capture: a hook that records branch traces from machine runs of the
//     compiled benchmark suite;
//   - synthesis: generators for large-footprint instruction traces standing
//     in for the Stanford Pascal/Lisp benchmarks (static code 50–270 KB,
//     far beyond what the tinyc suite reaches), with the paper's stated
//     structural differences between the workload classes (Lisp: more
//     jumps, shorter runs, more call chasing).
package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/reorg"
)

// BranchEvent is one resolved conditional branch.
type BranchEvent struct {
	PC       isa.Word
	Taken    bool
	Backward bool // branch displacement is negative (loop-shaped)
}

// Recorder captures a run's branch trace from a pipeline CPU's hook.
type Recorder struct {
	Branches []BranchEvent
}

// Attach installs the recorder's hook on the CPU.
func (r *Recorder) Attach(cpu *pipeline.CPU) {
	cpu.BranchTrace = func(pc isa.Word, in isa.Instruction, taken bool) {
		r.Branches = append(r.Branches, BranchEvent{PC: pc, Taken: taken, Backward: in.Off < 0})
	}
}

// Profile converts a branch trace into the reorganizer's per-branch
// taken-fraction profile. Branch ordinals are assigned by scanning the
// image's branch-class instructions in address order, which matches the
// reorganizer's numbering exactly (it preserves branch order).
func Profile(im *asm.Image, events []BranchEvent) reorg.Profile {
	ordinal := map[isa.Word]int{}
	n := 0
	for i, w := range im.Words {
		if im.IsInstr[i] && isa.Decode(w).IsBranch() {
			ordinal[im.Base+isa.Word(i)] = n
			n++
		}
	}
	taken := map[int]float64{}
	total := map[int]float64{}
	for _, e := range events {
		o, ok := ordinal[e.PC]
		if !ok {
			continue
		}
		total[o]++
		if e.Taken {
			taken[o]++
		}
	}
	prof := reorg.Profile{}
	for o, t := range total {
		prof[o] = taken[o] / t
	}
	return prof
}

// ---------------------------------------------------------------------------
// Synthetic instruction traces

// SynthConfig parameterizes a synthetic program's structure.
type SynthConfig struct {
	CodeWords int // static code footprint in words
	Funcs     int // number of functions the code is divided into
	// AvgRun is the mean sequential run length between control transfers
	// (RISC code branches roughly every 5–7 instructions).
	AvgRun int
	// AvgLoopIters is the mean iteration count of loops.
	AvgLoopIters int
	// CallProb is the probability a segment boundary performs a call.
	CallProb float64
	// HotFuncs is the size of the frequently-called function set; calls go
	// to it with probability HotBias.
	HotFuncs int
	HotBias  float64
	MaxDepth int
	Seed     int64
}

// PascalSynth resembles the paper's large Pascal benchmarks: loop-heavy
// code with moderate calls. CodeWords defaults to 24K words (~96 KB).
func PascalSynth(codeWords int) SynthConfig {
	if codeWords == 0 {
		codeWords = 24 * 1024
	}
	return SynthConfig{
		CodeWords: codeWords, Funcs: codeWords / 160,
		AvgRun: 7, AvgLoopIters: 12, CallProb: 0.10,
		HotFuncs: 8, HotBias: 0.6, MaxDepth: 8, Seed: 1,
	}
}

// LispSynth resembles the Lisp benchmarks: many jumps, shorter runs, heavy
// call chasing (car/cdr helper calls), a flatter hot set.
func LispSynth(codeWords int) SynthConfig {
	if codeWords == 0 {
		codeWords = 32 * 1024
	}
	return SynthConfig{
		CodeWords: codeWords, Funcs: codeWords / 96,
		AvgRun: 5, AvgLoopIters: 6, CallProb: 0.22,
		HotFuncs: 16, HotBias: 0.5, MaxDepth: 10, Seed: 2,
	}
}

// FPSynth resembles floating-point-intensive code: long straight-line
// numeric kernels inside tight loops.
func FPSynth(codeWords int) SynthConfig {
	if codeWords == 0 {
		codeWords = 16 * 1024
	}
	return SynthConfig{
		CodeWords: codeWords, Funcs: codeWords / 320,
		AvgRun: 12, AvgLoopIters: 30, CallProb: 0.05,
		HotFuncs: 4, HotBias: 0.7, MaxDepth: 6, Seed: 3,
	}
}

// synthFunc is one function's pre-generated segment structure.
type synthFunc struct {
	base     isa.Word
	segments []segment
}

// segment is a run of sequential code executed iters times before moving on.
type segment struct {
	off   isa.Word // offset within the function
	len   isa.Word
	iters int
}

// Synthesizer produces instruction-address traces by walking a synthetic
// call/loop structure.
type Synthesizer struct {
	cfg   SynthConfig
	rng   *rand.Rand
	funcs []synthFunc
	hot   []int
}

// minFuncWords is the smallest function the layout will emit. Clamping to
// it guarantees at least one valid function even for degenerate configs
// (tiny CodeWords, huge Funcs), so Generate and pickCallee never face an
// empty function table.
const minFuncWords = 4

// NewSynthesizer lays out the synthetic program.
func NewSynthesizer(cfg SynthConfig) *Synthesizer {
	if cfg.Funcs < 2 {
		cfg.Funcs = 2
	}
	if cfg.CodeWords < minFuncWords {
		cfg.CodeWords = minFuncWords
	}
	s := &Synthesizer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	avgSize := cfg.CodeWords / cfg.Funcs
	base := isa.Word(0)
	for f := 0; f < cfg.Funcs && int(base) < cfg.CodeWords; f++ {
		size := avgSize/2 + s.rng.Intn(avgSize+1)
		if size < minFuncWords {
			size = minFuncWords
		}
		if int(base)+size > cfg.CodeWords {
			size = cfg.CodeWords - int(base)
		}
		if size < minFuncWords {
			if len(s.funcs) > 0 {
				break
			}
			// First function: take whatever remains (≥ minFuncWords, since
			// CodeWords was clamped and base is still 0).
			size = cfg.CodeWords - int(base)
		}
		fn := synthFunc{base: base}
		off := isa.Word(0)
		for int(off) < size {
			runLen := 1 + s.geometric(cfg.AvgRun)
			if int(off)+runLen > size {
				runLen = size - int(off)
			}
			iters := 1
			if s.rng.Float64() < 0.35 { // this segment is a loop body
				iters = 1 + s.geometric(cfg.AvgLoopIters)
			}
			fn.segments = append(fn.segments, segment{off: off, len: isa.Word(runLen), iters: iters})
			off += isa.Word(runLen)
		}
		s.funcs = append(s.funcs, fn)
		base += off
	}
	// Hot function set: the most-called functions, chosen randomly.
	perm := s.rng.Perm(len(s.funcs))
	n := cfg.HotFuncs
	if n > len(perm) {
		n = len(perm)
	}
	s.hot = perm[:n]
	sort.Ints(s.hot)
	return s
}

func (s *Synthesizer) geometric(mean int) int {
	if mean <= 1 {
		return 1
	}
	n := 1
	p := 1.0 / float64(mean)
	for s.rng.Float64() > p && n < mean*8 {
		n++
	}
	return n
}

func (s *Synthesizer) pickCallee() int {
	if len(s.hot) > 0 && s.rng.Float64() < s.cfg.HotBias {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	return s.rng.Intn(len(s.funcs))
}

// Generate produces an instruction-address trace of n references.
func (s *Synthesizer) Generate(n int) []isa.Word {
	out := make([]isa.Word, 0, n)
	for len(out) < n {
		s.walk(s.rng.Intn(len(s.funcs)), 0, &out, n)
	}
	return out[:n]
}

func (s *Synthesizer) walk(f, depth int, out *[]isa.Word, n int) {
	fn := &s.funcs[f]
	for _, seg := range fn.segments {
		for t := 0; t < seg.iters; t++ {
			start := fn.base + seg.off
			for a := start; a < start+seg.len; a++ {
				*out = append(*out, a)
				if len(*out) >= n {
					return
				}
			}
			if depth < s.cfg.MaxDepth && s.rng.Float64() < s.cfg.CallProb {
				s.walk(s.pickCallee(), depth+1, out, n)
				if len(*out) >= n {
					return
				}
			}
		}
	}
}

// Interleave merges several traces with a multiprogramming quantum Q, the
// Smith-survey methodology the Ecache ablations use. Each member is offset
// into its own address space so programs conflict in the cache, not in
// memory semantics. The stride between spaces is 2^24 words — the historical
// layout every recorded E6/E10 result was computed on — widened to the next
// power of two above the largest member address when a member outgrows it.
// Interleave errors instead of aliasing: before the widening, a member
// address ≥ 2^24 silently landed in a neighbour's space, and enough members
// pushed t*stride past the 32-bit isa.Word range so distinct programs wrapped
// onto each other; both layouts corrupted every miss-ratio derived downstream.
func Interleave(traces [][]isa.Word, q int) ([]isa.Word, error) {
	if q <= 0 {
		q = 10000
	}
	var maxAddr isa.Word
	for _, tr := range traces {
		for _, a := range tr {
			if a > maxAddr {
				maxAddr = a
			}
		}
	}
	stride := uint64(1) << 24
	for stride <= uint64(maxAddr) {
		stride <<= 1
	}
	if n := uint64(len(traces)); n > 0 {
		if top := (n-1)*stride + uint64(maxAddr); top > uint64(^isa.Word(0)) {
			return nil, fmt.Errorf(
				"trace: interleave of %d members at stride %#x overflows the address space (top address %#x)",
				len(traces), stride, top)
		}
	}
	var out []isa.Word
	idx := make([]int, len(traces))
	live := len(traces)
	for live > 0 {
		live = 0
		for t := range traces {
			tr := traces[t]
			end := idx[t] + q
			if end > len(tr) {
				end = len(tr)
			}
			for _, a := range tr[idx[t]:end] {
				out = append(out, a+isa.Word(uint64(t)*stride))
			}
			idx[t] = end
			if idx[t] < len(tr) {
				live++
			}
		}
	}
	return out, nil
}
