// Package mem provides the word-addressed main memory and the shared memory
// bus behind the MIPS-X external cache. The paper's system hangs a 64K-word
// external cache (Ecache) off the processor and connects it to main memory
// over a shared bus (shared because the project's larger goal was a 6–10
// node shared-memory multiprocessor); the bus model here charges a fixed
// latency plus a per-word transfer cost, which is all the paper's
// evaluation depends on.
package mem

import "repro/internal/isa"

// Page geometry: 4K-word pages.
const (
	pageBits = 12
	pageSize = 1 << pageBits // words per page
	pageMask = pageSize - 1
)

// Memory is a sparse word-addressed main memory. The zero value is an empty
// memory ready to use; unwritten words read as zero.
//
// Invariant: once a page is allocated its backing array is never replaced,
// only written through, so a cached page pointer keeps reading current
// contents.
type Memory struct {
	pages map[isa.Word]*[pageSize]isa.Word
	// One-entry page memo: accesses cluster heavily (a loop's working set is
	// a handful of pages), and the map lookup dominates the hit path of the
	// caches stacked above. lastPage is only ever a pointer already in the
	// map, so the type invariant holds unchanged.
	lastPN   isa.Word
	lastPage *[pageSize]isa.Word
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[isa.Word]*[pageSize]isa.Word)}
}

// Write stores w at word address a.
func (m *Memory) Write(a, w isa.Word) {
	if pn := a >> pageBits; pn == m.lastPN && m.lastPage != nil {
		m.lastPage[a&pageMask] = w
		return
	}
	p := m.pages[a>>pageBits]
	if p == nil {
		p = new([pageSize]isa.Word)
		m.pages[a>>pageBits] = p
	}
	m.lastPN, m.lastPage = a>>pageBits, p
	p[a&pageMask] = w
}

// Peek returns the word at word address a. The caches above it account the
// traffic: memory is only the value store.
func (m *Memory) Peek(a isa.Word) isa.Word {
	if pn := a >> pageBits; pn == m.lastPN && m.lastPage != nil {
		return m.lastPage[a&pageMask]
	}
	p := m.pages[a>>pageBits]
	if p == nil {
		return 0
	}
	m.lastPN, m.lastPage = a>>pageBits, p
	return p[a&pageMask]
}

// LoadImage copies a contiguous image into memory starting at base (the
// pre-run program load).
func (m *Memory) LoadImage(base isa.Word, words []isa.Word) {
	for i, w := range words {
		a := base + isa.Word(i)
		p := m.pages[a>>pageBits]
		if p == nil {
			p = new([pageSize]isa.Word)
			m.pages[a>>pageBits] = p
		}
		p[a&pageMask] = w
	}
}

// Bus models the shared memory bus: a fixed access latency plus a per-word
// transfer time. All costs are in processor cycles.
//
// In a multiprocessor (the MIPS-X project's system goal was 6–10 processors
// on a shared memory bus), each node has its own Bus front-end but they
// contend for one physical bus: set Arb to a shared Arbiter and Now to the
// node's local clock, and TransferCost adds the queueing delay.
type Bus struct {
	Latency      int // cycles before the first word arrives
	PerWord      int // additional cycles per word transferred
	BusyCycles   uint64
	Transfers    uint64
	WordsCarried uint64

	Arb *Arbiter      // optional shared-bus arbiter
	Now func() uint64 // node-local cycle clock, required when Arb is set

	// Intra-step progress: several transfers issued within one pipeline
	// step (write-back + fill, double fetch) already serialize in the
	// step's stall accounting, so the arbiter must see them at advancing
	// times rather than self-queueing at one instant.
	lastNow uint64
	accum   uint64
}

// Arbiter serializes transfers on a physical bus shared by several nodes.
type Arbiter struct {
	busyUntil uint64
	// WaitCycles accumulates the total queueing delay across all nodes —
	// the bus-saturation signal of the multiprocessor experiment.
	WaitCycles uint64
	Transfers  uint64
}

// Acquire reserves the bus for hold cycles starting no earlier than now,
// returning the cycles the requester must wait first.
func (a *Arbiter) Acquire(now uint64, hold int) int {
	start := now
	if a.busyUntil > start {
		start = a.busyUntil
	}
	a.busyUntil = start + uint64(hold)
	wait := int(start - now)
	a.WaitCycles += uint64(wait)
	a.Transfers++
	return wait
}

// DefaultBus returns the bus parameterization used throughout the
// reproduction: a line fetch of L words costs Latency + L·PerWord cycles.
// With Latency 4 and PerWord 1, a 4-word Ecache line fill takes 8 cycles —
// in the range the paper implies for external references at 20 MHz.
func DefaultBus() *Bus {
	return &Bus{Latency: 4, PerWord: 1}
}

// TransferCost returns the cycle cost of moving n words (including any
// queueing delay behind other nodes on a shared bus), and accounts the
// traffic.
func (b *Bus) TransferCost(n int) int {
	c, _ := b.TransferCostWait(n)
	return c
}

// TransferCostWait is TransferCost, additionally reporting how much of the
// cost was arbitration queueing behind other nodes (0 on a private bus).
// Callers that attribute stall cycles use the split to separate true memory
// transfer time from multiprocessor bus contention.
func (b *Bus) TransferCostWait(n int) (cost, wait int) {
	cost = b.Latency + n*b.PerWord
	if b.Arb != nil {
		now := b.Now()
		if now != b.lastNow {
			b.lastNow = now
			b.accum = 0
		}
		wait = b.Arb.Acquire(now+b.accum, cost)
		b.accum += uint64(wait + cost)
		cost += wait
	}
	b.BusyCycles += uint64(cost)
	b.Transfers++
	b.WordsCarried += uint64(n)
	return cost, wait
}
