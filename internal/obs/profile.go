package obs

import (
	"fmt"
	"sort"

	"repro/internal/jsondoc"
)

// PCProfile accumulates a per-PC execution profile at instruction
// writeback: how many times each program counter passed WB (retired or
// squash-annulled — the same population the ledger's execute/nop/
// squash-annul base causes partition), and the resolved outcome of every
// conditional branch that retired. It is the dynamic input the static
// cycle-cost model (internal/lint) rolls its per-block costs up with, and
// the two are cross-validated against the ledger exactly.
//
// Counting happens at WB, not at resolution, so the profile and the ledger
// describe the same set of instruction slots: an instruction still in
// flight when the machine halts appears in neither. Exception-killed slots
// are excluded from both as well (they land in the ledger's exception-kill
// cause, which the static model does not predict).
//
// The profile is dense over [base, base+n) for cheap charging on the
// pipeline's retire path; PCs outside that window (runaway fetches) spill
// into a map. All methods are nil-safe so the pipeline can charge through
// a possibly-absent profile with a single branch.
type PCProfile struct {
	base  uint32
	cnt   []pcCounts
	extra map[uint32]*pcCounts
}

type pcCounts struct {
	wb       uint64
	taken    uint64
	notTaken uint64
}

// NewPCProfile builds a profile dense over word addresses [base, base+n).
// n may be zero: every PC then lands in the overflow map (fine for
// offline consumers, too slow for hot simulation loops).
func NewPCProfile(base uint32, n int) *PCProfile {
	return &PCProfile{base: base, cnt: make([]pcCounts, n)}
}

func (p *PCProfile) at(pc uint32) *pcCounts {
	if i := pc - p.base; uint64(i) < uint64(len(p.cnt)) {
		return &p.cnt[i]
	}
	if p.extra == nil {
		p.extra = make(map[uint32]*pcCounts)
	}
	c := p.extra[pc]
	if c == nil {
		c = &pcCounts{}
		p.extra[pc] = c
	}
	return c
}

// NoteWB records that the instruction at pc passed writeback, either
// retiring or squash-annulled. Nil-safe.
func (p *PCProfile) NoteWB(pc uint32) {
	if p == nil {
		return
	}
	p.at(pc).wb++
}

// NoteBranch records the resolved direction of a conditional branch at
// retirement. Nil-safe.
func (p *PCProfile) NoteBranch(pc uint32, taken bool) {
	if p == nil {
		return
	}
	c := p.at(pc)
	if taken {
		c.taken++
	} else {
		c.notTaken++
	}
}

// WBCount returns the writeback passes recorded for pc. Nil-safe.
func (p *PCProfile) WBCount(pc uint32) uint64 {
	if p == nil {
		return 0
	}
	return p.peek(pc).wb
}

// BranchCounts returns the taken/not-taken retirements of the branch at
// pc. Nil-safe.
func (p *PCProfile) BranchCounts(pc uint32) (taken, notTaken uint64) {
	if p == nil {
		return 0, 0
	}
	c := p.peek(pc)
	return c.taken, c.notTaken
}

// peek reads without allocating overflow entries.
func (p *PCProfile) peek(pc uint32) pcCounts {
	if i := pc - p.base; uint64(i) < uint64(len(p.cnt)) {
		return p.cnt[i]
	}
	if c := p.extra[pc]; c != nil {
		return *c
	}
	return pcCounts{}
}

// PCProfileSchema versions serialized profiles.
const PCProfileSchema = "mipsx-pcprofile/v1"

// PCEntry is one nonzero profile row.
type PCEntry struct {
	PC       uint32 `json:"pc"`
	WB       uint64 `json:"wb"`
	Taken    uint64 `json:"taken,omitempty"`
	NotTaken uint64 `json:"not_taken,omitempty"`
}

// PCProfileDoc is the serializable profile (what `mipsx-run -profile-out`
// writes and `mipsx-lint -profile` reads). Entries are sorted by PC with
// all-zero rows omitted, so marshaling is deterministic.
type PCProfileDoc struct {
	Schema  string    `json:"schema"`
	Entries []PCEntry `json:"entries"`
}

// Doc snapshots the profile into its serializable form.
func (p *PCProfile) Doc() *PCProfileDoc {
	d := &PCProfileDoc{Schema: PCProfileSchema, Entries: []PCEntry{}}
	if p == nil {
		return d
	}
	add := func(pc uint32, c pcCounts) {
		if c.wb == 0 && c.taken == 0 && c.notTaken == 0 {
			return
		}
		d.Entries = append(d.Entries, PCEntry{PC: pc, WB: c.wb, Taken: c.taken, NotTaken: c.notTaken})
	}
	for i, c := range p.cnt {
		add(p.base+uint32(i), c)
	}
	for pc, c := range p.extra {
		add(pc, *c)
	}
	sort.Slice(d.Entries, func(i, j int) bool { return d.Entries[i].PC < d.Entries[j].PC })
	return d
}

// ParsePCProfile reads a profile strictly (jsondoc.Parse) back into a
// usable PCProfile (map-backed; intended for offline analysis, not
// simulation). The entries must be what Doc writes: strictly increasing by
// PC, none all-zero, so every row given is a row kept.
func ParsePCProfile(b []byte) (*PCProfile, error) {
	d, err := jsondoc.Parse[PCProfileDoc](b, PCProfileSchema, "a pc profile")
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	p := NewPCProfile(0, 0)
	for i, e := range d.Entries {
		if i > 0 && e.PC <= d.Entries[i-1].PC {
			return nil, fmt.Errorf("obs: pc profile entry %d: pc %d after pc %d, want strictly increasing", i, e.PC, d.Entries[i-1].PC)
		}
		if e.WB == 0 && e.Taken == 0 && e.NotTaken == 0 {
			return nil, fmt.Errorf("obs: pc profile entry %d: pc %d has all-zero counts", i, e.PC)
		}
		c := p.at(e.PC)
		c.wb, c.taken, c.notTaken = e.WB, e.Taken, e.NotTaken
	}
	return p, nil
}
