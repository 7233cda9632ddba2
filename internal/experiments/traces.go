package experiments

// The memoized cells of the trace-driven experiments (E2, E4, E6, E10). A
// synthesized trace is a deterministic function of its SynthConfig and
// reference count — for composites, of the member configs and the
// interleave quantum — so a trace's identity is the framed hash of that
// closure. The sweeps downstream of a trace key on that identity plus their
// cache/scheme parameters and take the stream itself from the trace's lazy
// source, so a cold miss generates each trace once and a replay that hits
// every derived cell generates nothing. A trace is an input, not a result:
// nothing stores it (DESIGN.md §10 has the measurement). E4's branch
// streams are inputs the same way: each of its two cells keys on its
// stream's closure and stores only its predictor rows.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bpred"
	"repro/internal/ecache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// synthSpec is one synthesized trace's input closure: the generator config
// and the reference count.
type synthSpec struct {
	Cfg  trace.SynthConfig
	Refs int
}

func (sp synthSpec) key() string {
	return newKey("synth-trace").synth("synth", sp.Cfg, sp.Refs).sum()
}

// traceSpec is the input closure of a possibly-composite trace: one member
// and quantum 0 for a plain synthesized stream, several members for a
// multiprogrammed interleave (the Smith-survey methodology E6/E10 use).
type traceSpec struct {
	Members []synthSpec
	Quantum int
}

func synthTrace(cfg trace.SynthConfig, refs int) traceSpec {
	return traceSpec{Members: []synthSpec{{Cfg: cfg, Refs: refs}}}
}

func (ts traceSpec) composite() bool { return len(ts.Members) > 1 || ts.Quantum != 0 }

// key is the trace's identity, which the derived cells fold into their own
// keys. A composite folds the quantum and every member's full closure; a
// single member's identity is its own, so the same stream reached directly
// or as a one-member "composite" keys its sweeps identically. Nothing is
// stored under the two kind labels, but every recorded sweep key hashes
// them, so they must not change.
func (ts traceSpec) key() string {
	if !ts.composite() {
		return ts.Members[0].key()
	}
	k := newKey("interleave-trace")
	k.num("quantum", uint64(ts.Quantum))
	k.num("members", uint64(len(ts.Members)))
	for i, m := range ts.Members {
		k.synth(fmt.Sprintf("member[%d]", i), m.Cfg, m.Refs)
	}
	return k.sum()
}

// source returns the trace's lazy generator. The first call synthesizes
// every member (and interleaves a composite); every call returns that one
// stream, so the cells sharing a source generate the trace at most once,
// and not at all when they all replay. Callers treat the stream as
// read-only.
func (ts traceSpec) source() func() ([]isa.Word, error) {
	return sync.OnceValues(func() ([]isa.Word, error) {
		parts := make([][]isa.Word, len(ts.Members))
		for i, m := range ts.Members {
			parts[i] = trace.NewSynthesizer(m.Cfg).Generate(m.Refs)
		}
		if !ts.composite() {
			return parts[0], nil
		}
		return trace.Interleave(parts, ts.Quantum)
	})
}

// ---------------------------------------------------------------------------
// Derived sweeps: memoized cells keyed on (trace identity × parameters).

// fetchCost is the serializable result of an Icache sweep over a trace.
type fetchCost struct {
	Miss   float64 `json:"miss"`
	Cycles float64 `json:"cycles"`
}

// icacheCostCell sweeps a trace through an Icache organization (E2's
// design grid, E6's large-program fetch stalls — identical closures hash
// identically, so the two experiments share cells). The organization is an
// Icache sub-spec; its digest is the key's configuration material.
func icacheCostCell(id string, ts traceSpec, ic spec.ICacheSpec,
	src func() ([]isa.Word, error), out *fetchCost) Cell {
	return Cell{
		ID: id,
		Fn: func(context.Context) error {
			tr, err := src()
			if err != nil {
				return err
			}
			out.Miss, out.Cycles = icacheCost(ic, tr)
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				k := newKey("icache-cost")
				k.str("trace", ts.key())
				k.str("icache-spec", ic.Digest())
				return k.sum(), nil
			},
			Out: out,
		},
	}
}

// ecacheSweep is the serializable result of an Ecache sweep over a trace.
type ecacheSweep struct {
	MissRatio float64 `json:"miss_ratio"`
	// StallPerRef is the Ecache stall cycles per access (E6's per-reference
	// data-stall estimate).
	StallPerRef float64 `json:"stall_per_ref"`
	// BusPerKiloRef is bus words carried per 1000 references (E10's traffic
	// column).
	BusPerKiloRef float64 `json:"bus_per_kilo_ref"`
}

// ecacheSweepCell sweeps a trace through an Ecache organization (a
// sub-spec, digested into the key) over the default bus, optionally turning
// every fifth reference into a write (the 20% write mix of the write-policy
// ablations). The write mix's shape is generator semantics, covered by
// memoEpoch like the synthesizers'.
func ecacheSweepCell(id string, ts traceSpec, ec spec.ECacheSpec, writes bool,
	src func() ([]isa.Word, error), out *ecacheSweep) Cell {
	return Cell{
		ID: id,
		Fn: func(context.Context) error {
			tr, err := src()
			if err != nil {
				return err
			}
			m := mem.New()
			bus := mem.DefaultBus()
			e := ecache.New(ec.BuildECache(), m, bus)
			for k, a := range tr {
				if writes && k%5 == 0 {
					e.Write(a, 1)
				} else {
					e.Read(a)
				}
			}
			out.MissRatio = e.Stats.MissRatio()
			out.StallPerRef = float64(e.Stats.StallCycles) / float64(e.Stats.Accesses())
			out.BusPerKiloRef = 1000 * float64(bus.WordsCarried) / float64(len(tr))
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				bus := mem.DefaultBus()
				k := newKey("ecache-sweep")
				k.str("trace", ts.key())
				k.str("ecache-spec", ec.Digest())
				k.str("bus", fmt.Sprintf("%d/%d", bus.Latency, bus.PerWord))
				k.num("writes", boolBit(writes))
				return k.sum(), nil
			},
			Out: out,
		},
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Predictor evaluation (E4).

// predRow is one row of E4's table: kind is "static", "profile" or
// "cache", and entries sizes a cache.
type predRow struct {
	name    string
	kind    string
	entries int
}

// predEval is the serializable outcome of one predictor over one stream.
type predEval struct {
	Acc float64 `json:"acc"`
	// Hit is the branch-cache hit rate; meaningful only for cache rows.
	Hit float64 `json:"hit,omitempty"`
}

// branchStream is one of E4's predictor inputs. closure starts a memo key
// over everything the stream is a function of; events produces the stream,
// which, like a synthesized address trace, is never stored.
type branchStream struct {
	closure func() (*keyBuilder, error)
	events  func(ctx context.Context) ([]trace.BranchEvent, error)
}

// suiteBranches is the benchmarks' dynamic branches, captured in order
// under one scheme on the machine the spec names. Its closure is every
// member's run closure. The captures come from the engine's table, so a
// run E1 already captured is not simulated again, and each capture's
// cycles and attribution account to the cell that reads it.
func suiteBranches(benches []tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) branchStream {
	return branchStream{
		closure: func() (*keyBuilder, error) {
			k := newKey("bpred-suite")
			k.num("members", uint64(len(benches)))
			for _, b := range benches {
				if err := k.bench(b, scheme, ms); err != nil {
					return nil, err
				}
			}
			return k, nil
		},
		events: func(ctx context.Context) ([]trace.BranchEvent, error) {
			var events []trace.BranchEvent
			for _, b := range benches {
				c, err := captured(ctx, b, scheme, ms, true)
				if err != nil {
					return nil, err
				}
				events = append(events, c.events...)
			}
			return events, nil
		},
	}
}

// syntheticBranches is syntheticBranchStream(n, sites, seed); those three
// numbers are its whole closure.
func syntheticBranches(n, sites int, seed int64) branchStream {
	return branchStream{
		closure: func() (*keyBuilder, error) {
			k := newKey("bpred-synthetic")
			k.num("n", uint64(n)).num("sites", uint64(sites)).num("seed", uint64(seed))
			return k, nil
		},
		events: func(context.Context) ([]trace.BranchEvent, error) {
			return syntheticBranchStream(n, sites, seed), nil
		},
	}
}

// bpredCell evaluates the rows over one branch stream and stores only
// their results, index-aligned with rows. It keys on the stream's closure
// plus the row list.
func bpredCell(id string, src branchStream, rows []predRow, out *[]predEval) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			events, err := src.events(ctx)
			if err != nil {
				return err
			}
			res := make([]predEval, len(rows))
			for i, r := range rows {
				switch r.kind {
				case "static":
					res[i].Acc = bpred.Accuracy(bpred.Static{}, events)
				case "profile":
					res[i].Acc = bpred.Accuracy(bpred.NewStaticProfile(events), events)
				case "cache":
					bc := bpred.NewBranchCache(r.entries)
					res[i].Acc = bpred.Accuracy(bc, events)
					res[i].Hit = bc.HitRate()
				default:
					return fmt.Errorf("unknown predictor kind %q", r.kind)
				}
			}
			*out = res
			return nil
		},
		Memo: &CellMemo{
			Key: func() (string, error) {
				k, err := src.closure()
				if err != nil {
					return "", err
				}
				k.num("rows", uint64(len(rows)))
				for i, r := range rows {
					k.str(fmt.Sprintf("row[%d].kind", i), r.kind)
					k.num(fmt.Sprintf("row[%d].entries", i), uint64(r.entries))
				}
				return k.sum(), nil
			},
			Out: out,
		},
	}
}
