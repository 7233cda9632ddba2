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

// VerifyAttribution checks the cycle-attribution invariants against the
// per-unit Stats counters and returns the first violation:
//
//	sum(causes)                               == pipeline Cycles   (conservation)
//	execute+nop+pipe-fill+squash+exception    == pipeline Fetches  (one base cause per Step)
//	icache-miss + ecache-ifetch               == icache StallCycles (the double-count seam:
//	    icache StallCycles INCLUDES the Ecache refill portion, which the
//	    Ecache also counts — the ledger holds each cycle exactly once)
//	ecache-ifetch + ecache-read + ecache-write
//	             + flush-refill               == ecache StallCycles
//	ecache-read + ecache-write                == pipeline DataStalls
//	coproc-busy                               == pipeline CoprocStalls
//
// flush-refill joins the Ecache seam because Flush charges its write-back
// stalls into ecache.StallCycles (see ecache.Flush) without going through
// either data port.
//
// On a shared bus (multiprocessor nodes) arbitration waits are carved out of
// the cache causes into bus-wait, so the per-cause rows become lower bounds;
// conservation stays exact. Nil sink verifies trivially.
func (m *Machine) VerifyAttribution() error {
	if m.Obs == nil {
		return nil
	}
	l := m.Obs.Ledger
	p, ic, ec := m.CPU.Stats, m.ICache.Stats, m.ECache.Stats
	if got := l.Total(); got != p.Cycles {
		return fmt.Errorf("core: attribution conservation violated: ledger %d != cycles %d (Δ%+d)",
			got, p.Cycles, int64(got)-int64(p.Cycles))
	}
	base := l.Count(obs.CauseExecute) + l.Count(obs.CauseNop) + l.Count(obs.CausePipeFill) +
		l.Count(obs.CauseSquashAnnul) + l.Count(obs.CauseExceptionKill)
	if base != p.Fetches {
		return fmt.Errorf("core: base-cause cycles %d != pipeline fetches %d", base, p.Fetches)
	}
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
			l.Count(obs.CauseEcacheRead) + l.Count(obs.CauseEcacheWrite), p.DataStalls},
		{"coproc-busy vs pipeline.CoprocStalls", l.Count(obs.CauseCoprocBusy), p.CoprocStalls},
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
