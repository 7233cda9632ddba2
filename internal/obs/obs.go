// Package obs is the simulator's observability substrate: a cycle-attribution
// ledger, a structured event tracer (Chrome trace-event / Perfetto JSON), and
// a serializable Report of the ledger plus the owner's per-unit counters.
//
// Design constraints, in order:
//
//  1. Near-zero overhead when off. Every instrumented unit holds a single
//     `Obs *obs.Sink` pointer; the disabled path is one nil check per charge
//     site. obs imports nothing from the rest of the repo so every simulator
//     package can import it without cycles.
//  2. Conservation. The ledger attributes every simulated cycle to exactly
//     one cause; `sum(causes) == total cycles` is an invariant the test
//     suite (and the bench gate) verifies on every benchmark × Table 1
//     scheme. Charging is therefore done at the unit that *creates* the
//     stall (icache charges its own miss penalty, ecache charges its refill
//     stalls, the pipeline charges the base cycle and coprocessor busy
//     waits), never summed from overlapping per-unit Stats.
//  3. Determinism. Everything here is driven by simulated cycles, never
//     wall-clock, so ledger snapshots and trace files are byte-identical
//     across runs and safe to memoize in the bench cache.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Cause indexes a ledger slot. The machine schema below covers the MIPS-X
// simulator; other machines (the VAX-like reference model) define their own
// name slice and use NewLedger directly.
type Cause int

// Machine-schema causes. Base causes (one per pipeline step, charged at WB):
// Execute, Nop, PipeFill, SquashAnnul, ExceptionKill. Stall causes (charged
// by the unit that stalls the clock): IcacheMiss is the Icache's own miss
// service (tag probe + sub-block bookkeeping), EcacheIFetch/EcacheRead/
// EcacheWrite are Ecache refill stalls split by which port triggered them,
// CoprocBusy is the coprocessor-interface busy wait, and BusWait is memory-
// bus arbitration contention in multiprocessor configurations (carved out of
// whichever Ecache stall was waiting on the bus). The multiprogramming
// scenario layer (internal/scenario) adds two more: ContextSwitch is the
// scheduler's fixed per-switch overhead under the flush policy (the software
// trap + state save/restore the paper's register-bank argument avoids), and
// FlushRefill is the cycle cost of writing dirty Ecache lines back when a
// context switch flushes the hierarchy. Both stay zero in single-program
// runs and under the PID-tagged policy, which is itself a checked invariant.
const (
	CauseExecute Cause = iota
	CauseNop
	CausePipeFill
	CauseSquashAnnul
	CauseExceptionKill
	CauseIcacheMiss
	CauseEcacheIFetch
	CauseEcacheRead
	CauseEcacheWrite
	CauseCoprocBusy
	CauseBusWait
	CauseContextSwitch
	CauseFlushRefill
	NumMachineCauses
)

// MachineCauseNames maps the machine schema to stable report keys.
var MachineCauseNames = []string{
	"execute",
	"nop",
	"pipe-fill",
	"squash-annul",
	"exception-kill",
	"icache-miss",
	"ecache-ifetch",
	"ecache-read",
	"ecache-write",
	"coproc-busy",
	"bus-wait",
	"context-switch",
	"flush-refill",
}

// VAXCauseNames is the cause schema for the VAX-like reference machine,
// decomposing its microcoded per-instruction cost model. Prefixed so the
// two schemas can share one aggregate attribution map.
var VAXCauseNames = []string{
	"vax-decode-execute",
	"vax-operand",
	"vax-microcode",
	"vax-branch",
	"vax-call-return",
	"vax-io",
}

// VAX-schema causes (indices into VAXCauseNames).
const (
	VAXDecodeExecute Cause = iota
	VAXOperand
	VAXMicrocode
	VAXBranch
	VAXCallReturn
	VAXIO
)

// Ledger attributes simulated cycles to causes. The zero ledger is unusable;
// construct with NewLedger or NewMachineLedger. All methods are nil-safe so
// instrumentation sites can charge through a possibly-absent sink without
// branching twice.
//
// Ledger is not internally synchronized: each simulated machine owns one
// ledger and machines never share them (the engine runs cells on separate
// goroutines with separate machines).
type Ledger struct {
	names  []string
	counts []uint64

	// ifetchDepth re-attributes Ecache charges that occur while the Icache
	// is servicing an instruction fetch miss: within a BeginIFetch/EndIFetch
	// bracket, CauseEcacheRead charges land on CauseEcacheIFetch instead.
	// This is how the ledger keeps the icache/ecache seam single-counted:
	// icache.Stats.StallCycles *includes* the backing Ecache refill time
	// (see internal/icache), so the ledger must not also count that time
	// as a data-side Ecache stall.
	ifetchDepth int

	// win, when attached, mirrors every resolved charge into fixed-size
	// cycle windows (window.go). It sees the post-resolution (cause, n)
	// stream — after the ifetch re-attribution and bus-wait split — so the
	// windowed view decomposes exactly like the flat counts.
	win *WindowedLedger
}

// NewLedger builds a ledger over an arbitrary cause-name schema.
func NewLedger(names []string) *Ledger {
	return &Ledger{names: names, counts: make([]uint64, len(names))}
}

// NewMachineLedger builds a ledger with the MIPS-X machine schema.
func NewMachineLedger() *Ledger { return NewLedger(MachineCauseNames) }

// Add charges n cycles to cause. Nil-safe.
func (l *Ledger) Add(cause Cause, n uint64) {
	if l == nil || n == 0 {
		return
	}
	l.counts[cause] += n
	if l.win != nil {
		l.win.charge(cause, n)
	}
}

// Stall charges a stall of n cycles to cause, with wait of those cycles
// (wait <= n) re-attributed to bus arbitration contention. Machine-schema
// only. Within an ifetch bracket, Ecache read charges are re-attributed to
// CauseEcacheIFetch so instruction-refill time is never double-counted
// against the data port. Nil-safe.
func (l *Ledger) Stall(cause Cause, n, wait uint64) {
	if l == nil || n == 0 {
		return
	}
	if l.ifetchDepth > 0 && cause == CauseEcacheRead {
		cause = CauseEcacheIFetch
	}
	if wait > n {
		wait = n
	}
	l.counts[CauseBusWait] += wait
	l.counts[cause] += n - wait
	if l.win != nil {
		l.win.charge(CauseBusWait, wait)
		l.win.charge(cause, n-wait)
	}
}

// AttachWindows mirrors subsequent charges into w (nil detaches). Attach
// before the run starts: the windowed timeline covers only charges made
// while attached. Nil-safe.
func (l *Ledger) AttachWindows(w *WindowedLedger) {
	if l != nil {
		l.win = w
	}
}

// Windows returns the attached windowed ledger, or nil.
func (l *Ledger) Windows() *WindowedLedger {
	if l == nil {
		return nil
	}
	return l.win
}

// BeginIFetch/EndIFetch bracket Icache miss service so that backing-store
// (Ecache) stalls charged inside the bracket are attributed to instruction
// fetch rather than the data port. Nil-safe.
func (l *Ledger) BeginIFetch() {
	if l != nil {
		l.ifetchDepth++
	}
}

// EndIFetch closes a BeginIFetch bracket.
func (l *Ledger) EndIFetch() {
	if l != nil && l.ifetchDepth > 0 {
		l.ifetchDepth--
	}
}

// Total returns the sum of all attributed cycles.
func (l *Ledger) Total() uint64 {
	if l == nil {
		return 0
	}
	var t uint64
	for _, c := range l.counts {
		t += c
	}
	return t
}

// Count returns the cycles attributed to one cause.
func (l *Ledger) Count(cause Cause) uint64 {
	if l == nil {
		return 0
	}
	return l.counts[cause]
}

// Map snapshots the ledger as cause-name → cycles (zero causes omitted).
func (l *Ledger) Map() map[string]uint64 {
	if l == nil {
		return nil
	}
	m := make(map[string]uint64, len(l.counts))
	for i, c := range l.counts {
		if c != 0 {
			m[l.names[i]] = c
		}
	}
	return m
}

// Causes snapshots the ledger in schema order (zero causes included, so a
// Report's shape is stable across runs of the same machine kind).
func (l *Ledger) Causes() []CauseCycles {
	if l == nil {
		return nil
	}
	out := make([]CauseCycles, len(l.counts))
	for i, c := range l.counts {
		out[i] = CauseCycles{Cause: l.names[i], Cycles: c}
	}
	return out
}

// Counter is one named counter snapshot in a Report.
type Counter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Sink bundles the observability endpoints a simulator unit may charge into.
// Units hold `Obs *obs.Sink`; nil means observation is off and each charge
// site costs exactly one branch. Ledger and Tracer may independently be nil
// (their methods are nil-safe), so ledger-only observation pays no tracing
// cost.
type Sink struct {
	Ledger *Ledger
	Tracer *Tracer

	// Now supplies the simulated-cycle clock for trace timestamps. The
	// owning machine wires it (core.Machine points it at the pipeline's
	// cycle counter); if nil, trace timestamps fall back to event order.
	Now func() uint64
}

// NewMachineSink returns a ledger-only sink with the machine cause schema —
// the configuration every experiment cell runs under.
func NewMachineSink() *Sink { return &Sink{Ledger: NewMachineLedger()} }

// Cycle returns the current simulated cycle for trace timestamps.
func (s *Sink) Cycle() uint64 {
	if s == nil || s.Now == nil {
		return 0
	}
	return s.Now()
}

// Report builds a serializable snapshot: the ledger by cause and the totals
// the conservation invariant is checked against. The owner of the units
// fills Counters (core.Machine.ObsReport does).
func (s *Sink) Report(cycles, instructions uint64) *Report {
	if s == nil {
		return nil
	}
	return &Report{
		Schema:       ReportSchema,
		Cycles:       cycles,
		Instructions: instructions,
		Causes:       s.Ledger.Causes(),
	}
}

// ReportSchema versions serialized Reports.
const ReportSchema = "mipsx-obs/v1"

// CauseCycles is one ledger row in a Report.
type CauseCycles struct {
	Cause  string `json:"cause"`
	Cycles uint64 `json:"cycles"`
}

// Report is the serializable observability snapshot for one machine run.
// It is embedded in memoized cell results, so it must marshal
// deterministically (slices in schema order; encoding/json sorts the maps).
type Report struct {
	Schema       string        `json:"schema"`
	Cycles       uint64        `json:"cycles"`
	Instructions uint64        `json:"instructions,omitempty"`
	Causes       []CauseCycles `json:"causes"`
	Counters     []Counter     `json:"counters,omitempty"`
}

// Marshal renders the report as indented JSON with a trailing newline
// (what `mipsx-run -breakdown-out` writes and `mipsx-trace viz` reads).
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseReport reads a report written by Marshal, rejecting other schemas.
func ParseReport(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: not an attribution report (schema %q, want %q)", r.Schema, ReportSchema)
	}
	return &r, nil
}

// Attributed sums the report's per-cause cycles.
func (r *Report) Attributed() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for _, c := range r.Causes {
		t += c.Cycles
	}
	return t
}

// Map returns cause → cycles (zero causes omitted).
func (r *Report) Map() map[string]uint64 {
	if r == nil {
		return nil
	}
	m := make(map[string]uint64, len(r.Causes))
	for _, c := range r.Causes {
		if c.Cycles != 0 {
			m[c.Cause] = c.Cycles
		}
	}
	return m
}

// Check enforces the conservation invariant: every simulated cycle is
// attributed to exactly one cause, so the ledger must sum to the machine's
// cycle count exactly.
func (r *Report) Check() error {
	if r == nil {
		return nil
	}
	if got := r.Attributed(); got != r.Cycles {
		return fmt.Errorf("obs: conservation violated: attributed %d cycles, machine ran %d (Δ%+d)",
			got, r.Cycles, int64(got)-int64(r.Cycles))
	}
	return nil
}

// DecompositionTable renders the report as a paper-style CPI decomposition:
// per-cause cycles, percent of total, and cycles-per-instruction, followed
// by the conservation line. Causes print in descending cycle order with
// zero rows elided.
func (r *Report) DecompositionTable() string {
	if r == nil {
		return ""
	}
	rows := make([]CauseCycles, 0, len(r.Causes))
	for _, c := range r.Causes {
		if c.Cycles != 0 {
			rows = append(rows, c)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Cycles > rows[j].Cycles })

	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %8s", "cause", "cycles", "%total")
	if r.Instructions > 0 {
		fmt.Fprintf(&b, " %8s", "CPI")
	}
	b.WriteByte('\n')
	for _, row := range rows {
		pct := 0.0
		if r.Cycles > 0 {
			pct = 100 * float64(row.Cycles) / float64(r.Cycles)
		}
		fmt.Fprintf(&b, "%-16s %14d %7.2f%%", row.Cause, row.Cycles, pct)
		if r.Instructions > 0 {
			fmt.Fprintf(&b, " %8.4f", float64(row.Cycles)/float64(r.Instructions))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s %14d %7.2f%%", "total", r.Cycles, 100.0)
	if r.Instructions > 0 {
		fmt.Fprintf(&b, " %8.4f", float64(r.Cycles)/float64(r.Instructions))
	}
	b.WriteByte('\n')
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "conservation: FAIL (%v)\n", err)
	} else {
		fmt.Fprintf(&b, "conservation: sum(causes) == %d cycles ok\n", r.Cycles)
	}
	for _, c := range r.Counters {
		fmt.Fprintf(&b, "  %-30s %14d\n", c.Name, c.Value)
	}
	return b.String()
}
