// Package spec defines the serializable machine specification behind every
// experiment and the design-space explorer: one validated value that names a
// complete MIPS-X design point — branch scheme (which drives both the
// reorganizer and the pipeline), pipeline ablations, Icache geometry and
// miss service, Ecache organization and timing, bus timing, and coprocessor
// presence. The branch, Icache and Ecache blocks are the types the
// reorganizer and the caches take themselves (reorg.Scheme, icache.Config,
// ecache.Config), which carry the spec's JSON names, so each design axis
// is described once.
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
	"encoding"
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
	// Branch is the Table 1 branch scheme, which drives both the
	// reorganizer and the pipeline's slot count.
	Branch   reorg.Scheme `json:"branch"`
	Pipeline PipelineSpec `json:"pipeline"`
	// ICache is the on-chip instruction cache organization: the geometry,
	// sub-blocking and miss-service axes of the paper's design study (E2).
	ICache icache.Config `json:"icache"`
	// ECache is the external cache organization and timing (E10's axes).
	ECache ecache.Config `json:"ecache"`
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

// PipelineSpec carries the pipeline ablations beyond the branch scheme.
type PipelineSpec struct {
	// StickyOverflow selects the rejected sticky-overflow-bit design instead
	// of trap on overflow (ablation E8).
	StickyOverflow bool `json:"sticky_overflow,omitempty"`
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
		Branch: reorg.Default(),
		ICache: icache.DefaultConfig(),
		ECache: ecache.DefaultConfig(),
		Bus:    BusSpec{Latency: 4, PerWord: 1},
	}
}

// Table1 is the design point for one paper Table 1 branch scheme: Default
// with the scheme applied.
func Table1(s reorg.Scheme) MachineSpec { return Default().WithScheme(s) }

// SweepECache is the Smith-survey ablation baseline (E10): 16K words,
// 4-word lines, 2-way LRU copy-back. Every E10 row derives from this one
// value, so the ablations cannot drift from each other's baseline.
func SweepECache() ecache.Config {
	return ecache.Config{SizeWords: 16384, LineWords: 4, Ways: 2}
}

// IdealBackingECache is the zero-cost backing store the Icache-only sweeps
// (E2, E6) put behind the cache under study, so only the on-chip
// organization is measured. It has no late-miss extra and sits on a bus
// with no latency and no per-word cost, so every access, hit or miss,
// costs 0 cycles whatever its geometry; it therefore takes the smallest
// valid one, a single 4-word line.
func IdealBackingECache() ecache.Config {
	return ecache.Config{SizeWords: 4, LineWords: 4, Ways: 1}
}

// WithScheme returns a copy with the branch scheme applied.
func (ms MachineSpec) WithScheme(s reorg.Scheme) MachineSpec {
	ms.Branch = s
	return ms
}

// ParseScheme reads a branch scheme from its reorg.Scheme.String() form
// ("2-slot squash optional", "1-slot no squash") or the short "2/optional"
// form the sweep axes use, whose squash mode is the spec's name for it.
func ParseScheme(s string) (reorg.Scheme, error) {
	for _, sc := range reorg.Table1Schemes() {
		name, _ := sc.Squash.MarshalText()
		if s == sc.String() || s == fmt.Sprintf("%d/%s", sc.Slots, name) {
			return sc, nil
		}
	}
	return reorg.Scheme{}, fmt.Errorf("spec: unknown branch scheme %q (want e.g. %q or %q)",
		s, reorg.Default().String(), "2/optional")
}

// ---------------------------------------------------------------------------
// Validation

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// Capacity bounds. Constructors allocate cache state proportional to these,
// so an unbounded geometry would exhaust memory (fatal, not a recoverable
// panic) instead of failing validation. Both admit every preset with room
// to spare: the largest Ecache is the default's 64K words, the largest
// Icache the paper's 512 words.
const (
	maxICacheWords = 1 << 16 // sets × ways × block_words
	maxECacheWords = 1 << 22
)

// Validate checks every constraint the simulator's constructors would
// otherwise panic on, the capacity bounds that keep them from exhausting
// memory, and the scheme constraints the toolchain enforces.
// All violations are reported, joined, so a sweep definition's errors
// surface at once. Decoding already rejects an unknown enum name; Validate
// rejects an enum value set in code past its names, which would not encode.
func (ms MachineSpec) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	enum := func(path string, v encoding.TextMarshaler) {
		if _, err := v.MarshalText(); err != nil {
			bad("%s: %v", path, err)
		}
	}

	if ms.Branch.Slots != 1 && ms.Branch.Slots != 2 {
		bad("branch.slots = %d, want 1 or 2", ms.Branch.Slots)
	}
	enum("branch.squash", ms.Branch.Squash)

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
	enum("ecache.repl", ec.Repl)
	enum("ecache.write", ec.Write)
	enum("ecache.fetch", ec.Fetch)
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
// Canonical encoding and digest

// CanonicalJSON is the spec's canonical encoding: compact encoding/json
// output, whose field order is the struct order above. Adding a field to
// any spec struct changes the encoding (and so every digest) by
// construction.
func (ms MachineSpec) CanonicalJSON() []byte {
	b, err := json.Marshal(ms)
	if err != nil {
		// Only an enum value past its names fails here, and Validate
		// rejects those: a validated spec always encodes.
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

// ECacheDigest is the Ecache organization's content identity, for cells
// keyed on the Ecache alone (the trace-driven E6 and E10 sweeps).
func ECacheDigest(ec ecache.Config) string { return subDigest("ecache", ec) }

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
