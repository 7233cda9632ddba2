package core

import (
	"fmt"

	"repro/internal/obs"
)

// Observe attaches an observability sink to every instrumented unit of the
// machine: the pipeline (base-cycle causes, coprocessor busy), the Icache
// (miss service + ifetch bracketing) and the Ecache (refill stalls split
// from bus-arbitration waits). Attach before the first Run: the ledger's
// conservation invariant counts cycles from attachment, so a mid-run attach
// under-attributes. The sink's clock is wired to the pipeline cycle counter
// so trace timestamps are simulated cycles. A nil sink detaches.
func (m *Machine) Observe(s *obs.Sink) {
	m.Obs = s
	m.CPU.Obs = s
	m.ICache.Obs = s
	m.ECache.Obs = s
	if s == nil {
		return
	}
	if s.Now == nil {
		s.Now = func() uint64 { return m.CPU.Stats.Cycles }
	}
}

// ObsReport snapshots the attached sink into a serializable report, with the
// pipeline's cycle and issued-instruction counts as the conservation totals
// and the per-unit counters read from Stats at the moment of the call. Nil
// when no sink is attached.
func (m *Machine) ObsReport() *obs.Report {
	if m.Obs == nil {
		return nil
	}
	r := m.Obs.Report(m.CPU.Stats.Cycles, m.CPU.Stats.Issued())
	p, ic, ec := &m.CPU.Stats, &m.ICache.Stats, &m.ECache.Stats
	r.Counters = []obs.Counter{
		{Name: "pipeline.fetches", Value: p.Fetches},
		{Name: "pipeline.retired", Value: p.Retired},
		{Name: "pipeline.squashed", Value: p.Squashed},
		{Name: "pipeline.branches", Value: p.Branches},
		{Name: "pipeline.exceptions", Value: p.Exceptions},
		{Name: "icache.fetches", Value: ic.Fetches},
		{Name: "icache.misses", Value: ic.Misses},
		{Name: "icache.stall_cycles", Value: ic.StallCycles},
		{Name: "ecache.reads", Value: ec.Reads},
		{Name: "ecache.writes", Value: ec.Writes},
		{Name: "ecache.read_misses", Value: ec.ReadMisses},
		{Name: "ecache.write_misses", Value: ec.WriteMisses},
		{Name: "ecache.stall_cycles", Value: ec.StallCycles},
		{Name: "bus.words", Value: m.Bus.WordsCarried},
		{Name: "bus.transfers", Value: m.Bus.Transfers},
	}
	return r
}

// VerifyAttribution checks the machine's ledger with VerifyLedger against
// its own pipeline cycles. Nil sink verifies trivially.
func (m *Machine) VerifyAttribution() error {
	if m.Obs == nil {
		return nil
	}
	return VerifyLedger(m.Obs.Ledger, m.CPU.Stats.Cycles, m)
}

// VerifyLedger checks the cycle-attribution invariants of ledger l, which
// the contexts ctxs charged over the one Icache and Ecache they share (a
// single machine is its own only context), and returns the first violation:
//
//	sum(causes)                               == cycles            (conservation)
//	execute+nop+pipe-fill+squash+exception    == Σ pipeline Fetches (one base cause per Step)
//	icache-miss + ecache-ifetch               == icache StallCycles (the double-count seam:
//	    icache StallCycles INCLUDES the Ecache refill portion, which the
//	    Ecache also counts — the ledger holds each cycle exactly once)
//	ecache-ifetch + ecache-read + ecache-write
//	             + flush-refill               == ecache StallCycles
//	ecache-read + ecache-write                == Σ pipeline DataStalls
//	coproc-busy                               == Σ pipeline CoprocStalls
//
// cycles is the clock the ledger conserves against: a machine's pipeline
// cycles, or a scenario CPU's clock, which also counts the switch-time work
// charged to context-switch and flush-refill. flush-refill joins the Ecache
// seam because Flush charges its write-back stalls into ecache.StallCycles
// (see ecache.Flush) without going through either data port.
//
// On an arbitrated bus (multiprocessor nodes) arbitration waits are carved
// out of the cache causes into bus-wait, so the per-cause rows become lower
// bounds; conservation stays exact.
func VerifyLedger(l *obs.Ledger, cycles uint64, ctxs ...*Machine) error {
	if got := l.Total(); got != cycles {
		return fmt.Errorf("core: attribution conservation violated: ledger %d != cycles %d (Δ%+d)",
			got, cycles, int64(got)-int64(cycles))
	}
	var fetches, dataStalls, coprocStalls uint64
	for _, m := range ctxs {
		fetches += m.CPU.Stats.Fetches
		dataStalls += m.CPU.Stats.DataStalls
		coprocStalls += m.CPU.Stats.CoprocStalls
	}
	base := l.Count(obs.CauseExecute) + l.Count(obs.CauseNop) + l.Count(obs.CausePipeFill) +
		l.Count(obs.CauseSquashAnnul) + l.Count(obs.CauseExceptionKill)
	if base != fetches {
		return fmt.Errorf("core: base-cause cycles %d != pipeline fetches %d", base, fetches)
	}
	ic, ec := ctxs[0].ICache.Stats, ctxs[0].ECache.Stats
	type seam struct {
		name string
		got  uint64
		want uint64
	}
	seams := []seam{
		{"icache-miss+ecache-ifetch vs icache.StallCycles",
			l.Count(obs.CauseIcacheMiss) + l.Count(obs.CauseEcacheIFetch), ic.StallCycles},
		{"ecache causes vs ecache.StallCycles",
			l.Count(obs.CauseEcacheIFetch) + l.Count(obs.CauseEcacheRead) + l.Count(obs.CauseEcacheWrite) +
				l.Count(obs.CauseFlushRefill),
			ec.StallCycles},
		{"ecache-read+ecache-write vs pipeline.DataStalls",
			l.Count(obs.CauseEcacheRead) + l.Count(obs.CauseEcacheWrite), dataStalls},
		{"coproc-busy vs pipeline.CoprocStalls", l.Count(obs.CauseCoprocBusy), coprocStalls},
	}
	wait := l.Count(obs.CauseBusWait)
	for _, s := range seams {
		if wait == 0 {
			if s.got != s.want {
				return fmt.Errorf("core: attribution seam %s: %d != %d", s.name, s.got, s.want)
			}
		} else if s.got > s.want || s.got+wait < s.want {
			// With contention each seam loses its own (unknown) share of the
			// waits, but can lose at most all of them.
			lo := uint64(0)
			if s.want > wait {
				lo = s.want - wait
			}
			return fmt.Errorf("core: attribution seam %s: %d outside [%d, %d]",
				s.name, s.got, lo, s.want)
		}
	}
	return nil
}
