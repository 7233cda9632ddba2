// Package lint is a static hazard verifier for assembled MIPS-X programs:
// it proves, without running anything, that code is safe to execute on a
// machine with no hardware interlocks.
//
// MIPS-X delegates every pipeline interlock to software ("the resulting
// pipeline interlocks are handled by the supporting software system",
// Chow & Horowitz, ISCA 1987). The reorganizer (internal/reorg) promises to
// schedule around the load delay slot, the branch delay slots and the
// special-register commit window — but until this package nothing
// independently checked that promise, and hand-written assembly fed to
// mipsx-asm/mipsx-run was trusted blindly. On this machine an interlock
// violation is not a fault: the program silently computes with stale values.
//
// The verifier builds an instruction-level control-flow graph with
// delay-slot-aware edges (after the last delay slot of a taken transfer,
// issue continues at the target; squashed slots still occupy issue slots and
// therefore still provide timing separation), then runs def-use walks and a
// register liveness dataflow across block boundaries. Its timing model is
// deliberately written independently of internal/reorg's scheduler tables,
// so the two implementations cross-check each other.
//
// Rules (see DESIGN.md §8 for the paper justification of each):
//
//	load-use        (error) register loaded by ld used within the load delay
//	coproc-transfer (error) register transferred by ldc used within the delay
//	ctrl-in-slot    (error) control transfer inside a delay slot (the
//	                        jpc/jpcrs exception-restart chain is exempt)
//	special-timing  (error) mots write to PSW/PSWold/MD read back (movs,
//	                        mstep, dstep) before it commits at WB
//	pc-chain        (error) mots write to pc0/pc1/pc2 consumed by jpc/jpcrs
//	                        before it commits at WB
//	quick-branch    (error, 1-slot config only) branch or jspci operand
//	                        produced too close for the reduced bypass network
//	psw-window      (warn)  PSW-sensitive instruction inside the mots psw
//	                        commit window (runs under the old PSW)
//	squash-slot-write (info) squashed delay slot writes a register that is
//	                        live on the fall-through path (the write is
//	                        suppressed there; surfaces the dependence)
//	slot-unfilled   (warn)  explicit no-op in an unconditionally-executed
//	                        delay slot that a provably movable instruction
//	                        above could fill
//	squash-slot-nop (warn)  explicit no-op in the annullable slot of a
//	                        squashing branch — wasted on the taken path and
//	                        annulled on the fall-through
//	unreachable-block (warn) no path from the entry (including call-return
//	                        continuations) reaches the block
//
// The package also carries the static cycle-cost model (AnalyzeCost, see
// cost.go): per-block base-cycle costs on the same delay-slot-aware graph,
// rolled up with a measured obs.PCProfile into whole-program predictions
// that the experiment engine cross-validates against the attribution
// ledger exactly.
//
// Error-severity rules correspond to real behavioral divergences between the
// pipelined machine and the sequential golden model — each is demonstrated
// by a differential test in this package.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/jsondoc"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities, least to most severe. Only SevError findings mean the program
// computes differently from its sequential reading.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return "?"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Rule identifiers. Stable strings: they appear in JSON output and in the
// documentation table.
const (
	RuleLoadUse         = "load-use"
	RuleCoprocTransfer  = "coproc-transfer"
	RuleCtrlInSlot      = "ctrl-in-slot"
	RuleSpecialTiming   = "special-timing"
	RulePCChain         = "pc-chain"
	RuleQuickBranch     = "quick-branch"
	RulePSWWindow       = "psw-window"
	RuleSquashSlotWrite = "squash-slot-write"
	RuleSlotUnfilled    = "slot-unfilled"
	RuleSquashSlotNop   = "squash-slot-nop"
	RuleUnreachable     = "unreachable-block"
)

// RuleSeverity returns the severity a rule reports at.
func RuleSeverity(rule string) Severity {
	switch rule {
	case RuleLoadUse, RuleCoprocTransfer, RuleCtrlInSlot,
		RuleSpecialTiming, RulePCChain, RuleQuickBranch:
		return SevError
	case RulePSWWindow, RuleSlotUnfilled, RuleSquashSlotNop, RuleUnreachable:
		return SevWarn
	}
	return SevInfo
}

// Diagnostic is one typed finding.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	PC       isa.Word `json:"pc"`
	Line     int      `json:"line,omitempty"`  // source line, when known
	Label    string   `json:"label,omitempty"` // nearest preceding label, "+n" offset
	Detail   string   `json:"detail"`
}

func (d Diagnostic) String() string {
	loc := fmt.Sprintf("pc %#06x", d.PC)
	if d.Label != "" {
		loc += " (" + d.Label + ")"
	}
	if d.Line > 0 {
		loc += fmt.Sprintf(" line %d", d.Line)
	}
	return fmt.Sprintf("%s: %s [%s] %s", loc, d.Severity, d.Rule, d.Detail)
}

// Config selects the machine variant being verified. The rules depend on it:
// the 1-slot quick-compare machine resolves branches a stage early and so
// demands an extra cycle of distance in front of every branch operand.
type Config struct {
	// Slots is the branch delay slot count: 2 (the machine as built) or 1
	// (the quick-compare alternative of Table 1).
	Slots int
}

// DefaultConfig verifies for the machine as built (two delay slots).
func DefaultConfig() Config { return Config{Slots: 2} }

// Report is the outcome of one verification pass.
type Report struct {
	Diags []Diagnostic
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any error-severity finding exists.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// Counts returns the number of findings per severity.
func (r *Report) Counts() (errs, warns, infos int) {
	for _, d := range r.Diags {
		switch d.Severity {
		case SevError:
			errs++
		case SevWarn:
			warns++
		default:
			infos++
		}
	}
	return
}

// String renders every finding, one per line, most severe first.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ReportSchema versions the JSON envelope JSON() emits, so downstream
// parsers can gate on it before trusting field shapes.
const ReportSchema = "mipsx-lint/v1"

// JSON renders the findings inside a schema-tagged envelope
// (jsondoc.Marshal: indented, newline-terminated).
func (r *Report) JSON() ([]byte, error) {
	ds := r.Diags
	if ds == nil {
		ds = []Diagnostic{}
	}
	return jsondoc.Marshal(struct {
		Schema      string       `json:"schema"`
		Diagnostics []Diagnostic `json:"diagnostics"`
	}{ReportSchema, ds})
}

// CheckImage verifies an assembled image.
func CheckImage(im *asm.Image, cfg Config) *Report {
	c := newChecker(im, cfg)
	c.run()
	return &Report{Diags: normalize(c.diags)}
}

// normalize puts diagnostics in a fully deterministic order — severity
// descending, then PC, rule, detail — and drops exact duplicates (the
// def-use walk can reach the same consumer along several paths and report
// it once per path).
func normalize(ds []Diagnostic) []Diagnostic {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Detail < b.Detail
	})
	out := ds[:0]
	for _, d := range ds {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out
}

// CheckSource parses, assembles and verifies assembler source.
func CheckSource(src string, cfg Config) (*Report, error) {
	im, err := asm.AssembleSource(src, 0)
	if err != nil {
		return nil, err
	}
	return CheckImage(im, cfg), nil
}
