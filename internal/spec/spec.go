// Package spec defines the serializable machine specification behind every
// experiment and the design-space explorer: one validated value that names a
// complete MIPS-X design point — branch scheme (which drives both the
// reorganizer and the pipeline), pipeline ablations, Icache geometry and
// miss service, Ecache organization and timing, bus timing, and coprocessor
// presence.
//
// A MachineSpec has a canonical JSON encoding and a framed sha256 Digest, so
// a spec *is* a memo key: the experiment engine's content-addressed cells
// hash the digest instead of hand-rolled config renderings, and the
// explorer's sweep points are deduplicated and golden-pinned by the same
// identity. core.New builds the machine from the spec itself, so every
// machine input is a spec field, and so covered by the digest, by
// construction.
//
// The spec deliberately carries no simulator diagnostics: the hazard
// checker observes without changing timing, so a caller that wants it sets
// it on the built machine's CPU, and two runs differing only in it share one
// spec, one digest and one memo entry.
package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/ecache"
	"repro/internal/icache"
	"repro/internal/jsondoc"
	"repro/internal/reorg"
)

// Schema identifies the canonical encoding; it is the first framed field of
// every digest, so a format change can never alias an older digest.
const Schema = "mipsx-spec/v1"

// MachineSpec is one complete design point. The zero value is not valid;
// start from Default (or a preset) and modify.
type MachineSpec struct {
	Branch   BranchSpec   `json:"branch"`
	Pipeline PipelineSpec `json:"pipeline"`
	// ICache is the on-chip instruction cache organization: the geometry,
	// sub-blocking and miss-service axes of the paper's design study (E2).
	// icache.Config carries its JSON field names.
	ICache icache.Config `json:"icache"`
	ECache ECacheSpec    `json:"ecache"`
	Bus    BusSpec       `json:"bus"`
	// NoFPU omits the floating-point coprocessor (the paper's FP-intensive
	// studies toggle it).
	NoFPU bool `json:"no_fpu,omitempty"`
	// Scenario, when non-nil, makes the spec a multiprogramming design point:
	// several programs time-share this machine's cache hierarchy under a
	// round-robin scheduler (internal/scenario). It is a pointer with
	// omitempty so single-program specs — every pre-existing baseline —
	// encode and digest exactly as before.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
}

// ScenarioSpec parameterizes the multiprogramming scenario layer: how often
// the scheduler switches contexts and what the switch does to the Icache.
type ScenarioSpec struct {
	// Quantum is the time slice in cycles a context runs before the
	// scheduler switches it out.
	Quantum int `json:"quantum"`
	// Policy selects what a context switch does to the Icache: "flush"
	// invalidates it (and drains the Ecache's dirty lines), "pid" switches
	// the PID tag so resident lines survive for their owner.
	Policy string `json:"policy"`
	// SwitchCost is the fixed per-switch overhead in cycles under the flush
	// policy (the software trap + state save/restore; the PID policy models
	// the register-bank design where switching is free). Charged to the
	// context-switch ledger cause.
	SwitchCost int `json:"switch_cost"`
}

// Scenario policy names.
const (
	PolicyFlush = "flush"
	PolicyPID   = "pid"
)

// DefaultScenario is the scenario baseline a sweep axis starts from when the
// base spec carries none: a 10K-cycle quantum (Smith's survey's canonical
// multiprogramming quantum, the same default trace.Interleave uses) under
// the flush policy with a 64-cycle switch (a software trap plus a 32-entry
// register save/restore). Sweep axes patch individual fields over this.
func DefaultScenario() ScenarioSpec {
	return ScenarioSpec{Quantum: 10000, Policy: PolicyFlush, SwitchCost: 64}
}

// BranchSpec is the Table 1 branch scheme: it parameterizes the reorganizer
// (delay-slot filling strategy) and the pipeline (slot count) together,
// because a design point is only meaningful when both agree.
type BranchSpec struct {
	// Slots is the branch delay: 2 (the machine as built) or 1 (the
	// quick-compare alternative, which resolves a stage early).
	Slots int `json:"slots"`
	// Squash selects the slot-filling strategy: "none", "always" or
	// "optional" (shipped).
	Squash string `json:"squash"`
}

// Squash mode names, in reorg.SquashMode order.
const (
	SquashNone     = "none"
	SquashAlways   = "always"
	SquashOptional = "optional"
)

// PipelineSpec carries the pipeline ablations beyond the branch scheme.
type PipelineSpec struct {
	// StickyOverflow selects the rejected sticky-overflow-bit design instead
	// of trap on overflow (ablation E8).
	StickyOverflow bool `json:"sticky_overflow,omitempty"`
}

// ECacheSpec is the external cache organization and timing.
type ECacheSpec struct {
	SizeWords int    `json:"size_words"`
	LineWords int    `json:"line_words"`
	Ways      int    `json:"ways"`
	Repl      string `json:"repl"`  // "lru", "fifo", "random"
	Write     string `json:"write"` // "copy-back", "write-through"
	Fetch     string `json:"fetch"` // "demand", "always", "on-miss", "tagged"
	// LateMissExtra is the additional stall charged because hit/miss is only
	// known at the start of the next cycle (the paper's late-miss signal).
	LateMissExtra int `json:"late_miss_extra"`
}

// BusSpec is the memory-bus timing: a transfer of L words costs
// Latency + L·PerWord cycles.
type BusSpec struct {
	Latency int `json:"latency"`
	PerWord int `json:"per_word"`
}

// ---------------------------------------------------------------------------
// Presets. Every experiment builds from these instead of hand-rolled config
// literals, so baselines cannot drift apart between experiments.

// Default is the machine as built: 2-slot squash-optional branches, the
// 512-word double-fetch Icache, the 64K-word direct-mapped copy-back Ecache
// and the 4+1-cycle bus.
func Default() MachineSpec {
	return MachineSpec{
		Branch: BranchSpec{Slots: 2, Squash: SquashOptional},
		ICache: icache.DefaultConfig(),
		ECache: DefaultECache(),
		Bus:    BusSpec{Latency: 4, PerWord: 1},
	}
}

// Table1 is the design point for one paper Table 1 branch scheme: Default
// with the scheme applied.
func Table1(s reorg.Scheme) MachineSpec { return Default().WithScheme(s) }

// DefaultECache is the Ecache as built: 64K words, 4-word lines, direct
// mapped, LRU, copy-back, late miss.
func DefaultECache() ECacheSpec {
	return ECacheSpec{SizeWords: 64 * 1024, LineWords: 4, Ways: 1,
		Repl: ReplLRU, Write: WriteCopyBack, Fetch: FetchDemand, LateMissExtra: 1}
}

// SweepECache is the Smith-survey ablation baseline (E10): 16K words,
// 4-word lines, 2-way LRU copy-back. Every E10 row derives from this one
// value, so the ablations cannot drift from each other's baseline.
func SweepECache() ECacheSpec {
	return ECacheSpec{SizeWords: 16384, LineWords: 4, Ways: 2,
		Repl: ReplLRU, Write: WriteCopyBack, Fetch: FetchDemand}
}

// IdealBackingECache is the zero-cost backing store the Icache-only sweeps
// (E2, E6) put behind the cache under study, so only the on-chip
// organization is measured. It has no late-miss extra and sits on a bus
// with no latency and no per-word cost, so every access, hit or miss,
// costs 0 cycles whatever its geometry; it therefore takes the smallest
// valid one, a single 4-word line.
func IdealBackingECache() ECacheSpec {
	return ECacheSpec{SizeWords: 4, LineWords: 4, Ways: 1,
		Repl: ReplLRU, Write: WriteCopyBack, Fetch: FetchDemand}
}

// WithScheme returns a copy with the branch scheme applied.
func (ms MachineSpec) WithScheme(s reorg.Scheme) MachineSpec {
	ms.Branch = BranchSpec{Slots: s.Slots, Squash: squashName(s.Squash)}
	return ms
}

// WithSizeWords returns a copy with the capacity replaced.
func (ec ECacheSpec) WithSizeWords(words int) ECacheSpec {
	ec.SizeWords = words
	return ec
}

// WithLineWords returns a copy with the line size replaced.
func (ec ECacheSpec) WithLineWords(words int) ECacheSpec {
	ec.LineWords = words
	return ec
}

// WithRepl returns a copy with the replacement policy replaced.
func (ec ECacheSpec) WithRepl(repl string) ECacheSpec {
	ec.Repl = repl
	return ec
}

// WithWrite returns a copy with the write policy replaced.
func (ec ECacheSpec) WithWrite(write string) ECacheSpec {
	ec.Write = write
	return ec
}

// WithPrefetch returns a copy with the fetch algorithm replaced.
func (ec ECacheSpec) WithPrefetch(fetch string) ECacheSpec {
	ec.Fetch = fetch
	return ec
}

// ---------------------------------------------------------------------------
// Enum name mappings. An unknown value renders as "unknown(n)", which
// Validate rejects.

// Replacement policy names, in ecache.Replacement order.
const (
	ReplLRU    = "lru"
	ReplFIFO   = "fifo"
	ReplRandom = "random"
)

// Write policy names, in ecache.WritePolicy order.
const (
	WriteCopyBack = "copy-back"
	WriteThrough  = "write-through"
)

// Fetch algorithm names, in ecache.Prefetch order.
const (
	FetchDemand = "demand"
	FetchAlways = "always"
	FetchOnMiss = "on-miss"
	FetchTagged = "tagged"
)

var (
	squashNames = []string{SquashNone, SquashAlways, SquashOptional}
	replNames   = []string{ReplLRU, ReplFIFO, ReplRandom}
	writeNames  = []string{WriteCopyBack, WriteThrough}
	fetchNames  = []string{FetchDemand, FetchAlways, FetchOnMiss, FetchTagged}
)

func enumName(names []string, v int) string {
	if v >= 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("unknown(%d)", v)
}

func enumValue(names []string, name string) (int, bool) {
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func squashName(m reorg.SquashMode) string { return enumName(squashNames, int(m)) }

// ParseScheme reads a branch scheme from its reorg.Scheme.String() form
// ("2-slot squash optional", "1-slot no squash") or the short "2/optional"
// form the sweep axes use.
func ParseScheme(s string) (reorg.Scheme, error) {
	for _, sc := range reorg.Table1Schemes() {
		if s == sc.String() || s == fmt.Sprintf("%d/%s", sc.Slots, squashName(sc.Squash)) {
			return sc, nil
		}
	}
	return reorg.Scheme{}, fmt.Errorf("spec: unknown branch scheme %q (want e.g. %q or %q)",
		s, reorg.Default().String(), "2/optional")
}

// Scheme returns the reorganizer scheme the spec names. It fails on an
// unknown squash mode, like Validate.
func (ms MachineSpec) Scheme() (reorg.Scheme, error) {
	m, ok := enumValue(squashNames, ms.Branch.Squash)
	if !ok {
		return reorg.Scheme{}, fmt.Errorf("spec: unknown squash mode %q", ms.Branch.Squash)
	}
	return reorg.Scheme{Slots: ms.Branch.Slots, Squash: reorg.SquashMode(m)}, nil
}

// ---------------------------------------------------------------------------
// Validation

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// Capacity bounds. Constructors allocate cache state proportional to these,
// so an unbounded geometry would exhaust memory (fatal, not a recoverable
// panic) instead of failing validation. Both admit every preset with room
// to spare: the largest Ecache is DefaultECache's 64K words, the largest
// Icache the paper's 512 words.
const (
	maxICacheWords = 1 << 16 // sets × ways × block_words
	maxECacheWords = 1 << 22
)

// Validate checks every constraint the simulator's constructors would
// otherwise panic on, the capacity bounds that keep them from exhausting
// memory, and the scheme constraints the toolchain enforces.
// All violations are reported, joined, so a sweep definition's errors
// surface at once.
func (ms MachineSpec) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if ms.Branch.Slots != 1 && ms.Branch.Slots != 2 {
		bad("branch.slots = %d, want 1 or 2", ms.Branch.Slots)
	}
	if _, ok := enumValue(squashNames, ms.Branch.Squash); !ok {
		bad("branch.squash = %q, want %q, %q or %q", ms.Branch.Squash, SquashNone, SquashAlways, SquashOptional)
	}

	ic := ms.ICache
	if !powerOfTwo(ic.Sets) {
		bad("icache.sets = %d, want a power of two", ic.Sets)
	}
	if ic.Ways <= 0 {
		bad("icache.ways = %d, want > 0", ic.Ways)
	}
	if !powerOfTwo(ic.BlockWords) {
		bad("icache.block_words = %d, want a power of two", ic.BlockWords)
	}
	if ic.FetchBack <= 0 {
		bad("icache.fetch_back = %d, want > 0", ic.FetchBack)
	}
	if ic.BlockWords > 0 && ic.FetchBack > ic.BlockWords {
		bad("icache.fetch_back = %d exceeds block_words = %d", ic.FetchBack, ic.BlockWords)
	}
	if ic.MissPenalty <= 0 {
		bad("icache.miss_penalty = %d, want > 0", ic.MissPenalty)
	}
	// Bounding each factor first keeps the product from overflowing.
	if ic.Sets > maxICacheWords || ic.Ways > maxICacheWords || ic.BlockWords > maxICacheWords ||
		ic.Sets*ic.Ways*ic.BlockWords > maxICacheWords {
		bad("icache geometry %d sets × %d ways × %d words exceeds %d words", ic.Sets, ic.Ways, ic.BlockWords, maxICacheWords)
	}

	ec := ms.ECache
	if ec.LineWords <= 0 || ec.Ways <= 0 || ec.SizeWords <= 0 {
		bad("ecache geometry %d words / %d per line / %d ways, want all > 0",
			ec.SizeWords, ec.LineWords, ec.Ways)
	} else if ec.SizeWords > maxECacheWords {
		bad("ecache.size_words = %d exceeds %d", ec.SizeWords, maxECacheWords)
	} else {
		if !powerOfTwo(ec.LineWords) {
			bad("ecache.line_words = %d, want a power of two", ec.LineWords)
		}
		sets := ec.SizeWords / ec.LineWords / ec.Ways
		if sets == 0 || !powerOfTwo(sets) || sets*ec.LineWords*ec.Ways != ec.SizeWords {
			bad("ecache.size_words = %d does not divide into a power-of-two number of %d-word %d-way sets",
				ec.SizeWords, ec.LineWords, ec.Ways)
		}
	}
	if _, ok := enumValue(replNames, ec.Repl); !ok {
		bad("ecache.repl = %q, want one of %s", ec.Repl, strings.Join(replNames, ", "))
	}
	if _, ok := enumValue(writeNames, ec.Write); !ok {
		bad("ecache.write = %q, want one of %s", ec.Write, strings.Join(writeNames, ", "))
	}
	if _, ok := enumValue(fetchNames, ec.Fetch); !ok {
		bad("ecache.fetch = %q, want one of %s", ec.Fetch, strings.Join(fetchNames, ", "))
	}
	if ec.LateMissExtra < 0 {
		bad("ecache.late_miss_extra = %d, want >= 0", ec.LateMissExtra)
	}

	if ms.Bus.Latency < 0 || ms.Bus.PerWord < 0 {
		bad("bus latency/per_word = %d/%d, want >= 0", ms.Bus.Latency, ms.Bus.PerWord)
	}

	if sc := ms.Scenario; sc != nil {
		if sc.Quantum <= 0 {
			bad("scenario.quantum = %d, want > 0", sc.Quantum)
		}
		if sc.Policy != PolicyFlush && sc.Policy != PolicyPID {
			bad("scenario.policy = %q, want %q or %q", sc.Policy, PolicyFlush, PolicyPID)
		}
		if sc.SwitchCost < 0 {
			bad("scenario.switch_cost = %d, want >= 0", sc.SwitchCost)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("spec: invalid machine spec: %s", strings.Join(errs, "; "))
}

// ---------------------------------------------------------------------------
// Realization

// BuildECache realizes the Ecache sub-spec: core.New builds a machine's
// Ecache from it, and the trace-driven sweeps build caches without a
// machine. The enum fields must be valid (Validate, or the zero mapping
// applies).
func (ec ECacheSpec) BuildECache() ecache.Config {
	repl, _ := enumValue(replNames, ec.Repl)
	write, _ := enumValue(writeNames, ec.Write)
	fetch, _ := enumValue(fetchNames, ec.Fetch)
	return ecache.Config{
		SizeWords:     ec.SizeWords,
		LineWords:     ec.LineWords,
		Ways:          ec.Ways,
		Repl:          ecache.Replacement(repl),
		Write:         ecache.WritePolicy(write),
		Fetch:         ecache.Prefetch(fetch),
		LateMissExtra: ec.LateMissExtra,
	}
}

// ---------------------------------------------------------------------------
// Canonical encoding and digest

// CanonicalJSON is the spec's canonical encoding: compact encoding/json
// output, whose field order is the struct order above. Adding a field to
// any spec struct changes the encoding (and so every digest) by
// construction.
func (ms MachineSpec) CanonicalJSON() []byte {
	b, err := json.Marshal(ms)
	if err != nil {
		// Only unsupported types can fail here, and the spec is all scalars.
		panic(fmt.Sprintf("spec: canonical encoding failed: %v", err))
	}
	return b
}

// Digest is the spec's content identity: a framed sha256 over the schema
// name and the canonical JSON (length-prefixed, so no two field layouts can
// alias). Experiment memo keys and explorer points key on this.
func (ms MachineSpec) Digest() string {
	return framedDigest(Schema, ms.CanonicalJSON())
}

// ICacheDigest is the Icache organization's content identity, for cells
// keyed on the Icache alone (the trace-driven E2/E6 sweeps).
func ICacheDigest(ic icache.Config) string { return subDigest("icache", ic) }

// Digest is the Ecache sub-spec's content identity, for cells keyed on the
// Ecache organization alone (the trace-driven E10 ablations).
func (ec ECacheSpec) Digest() string { return subDigest("ecache", ec) }

// subDigest frames a sub-spec's JSON encoding under its kind's label.
func subDigest(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("spec: canonical encoding failed: %v", err))
	}
	return framedDigest(Schema+"/"+kind, b)
}

func framedDigest(label string, body []byte) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(label)))
	h.Write(buf[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(len(body)))
	h.Write(buf[:])
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// Parse reads a machine spec from its JSON encoding, rejecting unknown
// fields (a typo in a sweep definition must not silently sweep nothing) and
// trailing data, and validating the result.
func Parse(b []byte) (MachineSpec, error) {
	var ms MachineSpec
	if err := jsondoc.Decode(b, &ms); err != nil {
		return MachineSpec{}, fmt.Errorf("spec: %w", err)
	}
	if err := ms.Validate(); err != nil {
		return MachineSpec{}, err
	}
	return ms, nil
}
