// Package icache implements the MIPS-X on-chip instruction cache.
//
// The paper's Icache is a 2 KB (512-word) cache organized as an 8-way
// set-associative cache with 4 sets (rows) and 16 words per block, using
// sub-block placement: there are 512 valid bits, one per word, and only 32
// tags. The tag and valid-bit stores sit in the datapath next to the PC unit
// so that a miss is detected fast enough to service in 2 cycles instead
// of 3. On a miss the machine stalls 2 cycles and fetches back two words —
// the one that missed and the next to be executed — which almost halves the
// miss ratio relative to single-word fetch ("the key realization ... was
// that there was extra cache bandwidth available"). Fetching more than 2
// words would not help because the cache bandwidth is then fully used.
//
// Instructions that miss are supplied by the external cache, so the total
// stall on an Icache miss is the Icache's own service time plus whatever the
// Ecache adds.
package icache

import (
	"repro/internal/ecache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Config parameterizes the Icache organization, exposing the axes the
// design-space study in the paper (and its companion paper, Agarwal et al.
// 1987) explored.
type Config struct {
	Sets       int // number of sets (rows); paper: 4
	Ways       int // associativity; paper: 8
	BlockWords int // words per block (line); paper: 16
	FetchBack  int // words fetched on a miss; paper: 2 (the double fetch)
	// MissPenalty is the machine stall per miss in cycles; 2 with the tag
	// store in the datapath, 3 otherwise.
	MissPenalty int
	// NoCacheCoproc models the rejected coprocessor proposal in which
	// coprocessor instructions are never cached, so the coprocessor can
	// capture them from the memory bus during the (forced) miss.
	NoCacheCoproc bool
	// Disabled runs with the cache turned off (every fetch misses and
	// nothing is allocated) — the paper's instruction-register test feature.
	Disabled bool
}

// DefaultConfig is the Icache as built: 4 sets × 8 ways × 16 words = 512
// words, double fetch, 2-cycle miss service.
func DefaultConfig() Config {
	return Config{Sets: 4, Ways: 8, BlockWords: 16, FetchBack: 2, MissPenalty: 2}
}

// SizeWords returns the data capacity.
func (c Config) SizeWords() int { return c.Sets * c.Ways * c.BlockWords }

// StateBits returns the number of architected storage bits the
// organization costs on chip: data, per-word valid bits (sub-block
// placement) and one tag per block. Sets and BlockWords must be powers of
// two.
func (c Config) StateBits() int {
	words := c.SizeWords()
	tagBits := 32 - int(log2(c.BlockWords)) - int(log2(c.Sets))
	return words*32 + words + c.Sets*c.Ways*tagBits
}

// Stats accumulates Icache behaviour.
type Stats struct {
	Fetches uint64
	Misses  uint64
	// StallCycles is the TOTAL fetch stall: the Icache's own miss service
	// (MissPenalty per miss) plus the backing Ecache's refill stalls, which
	// serviceMiss folds in. The Ecache's own Stats.StallCycles counts those
	// refill cycles too, so the two StallCycles fields overlap and must
	// never be summed; the obs ledger keeps them single-counted by
	// attributing the refill portion to the ecache-ifetch cause (see the
	// conservation test in internal/experiments).
	StallCycles  uint64
	WordsFetched uint64 // words brought on-chip (bus pin traffic)
}

// MissRatio returns misses per fetch.
func (s Stats) MissRatio() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Fetches)
}

// FetchCost is cycles per fetch (1 + stalls amortized over fetches). Guarded:
// zero fetches cost zero, not NaN — keep every divide on these stats behind a
// helper like this one.
func (s Stats) FetchCost() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return 1 + float64(s.StallCycles)/float64(s.Fetches)
}

type block struct {
	tag   isa.Word
	valid []bool // per-word valid bits: sub-block placement
	inUse bool   // tag allocated
	use   uint64 // LRU stamp
	// pid is the process-ID tag of the context that installed the block.
	// Under the scenario layer's PID-tagged policy a block hits only for the
	// context whose pid matches (SetPID); in single-program runs every block
	// carries pid 0 and the comparison is always true, so the field is free.
	pid int
	// coproc marks words holding coprocessor instructions under the
	// NoCacheCoproc ablation; such words never become valid.
	coproc []bool
}

// Cache is the on-chip instruction cache backed by the Ecache.
type Cache struct {
	cfg      Config
	sets     [][]block
	blkShift uint
	offMask  isa.Word // word offset within a block
	setMask  isa.Word
	setBits  uint
	tick     uint64

	// One-entry hit memo: the last block a fetch hit in, keyed by block
	// address (a >> blkShift). Sequential fetches land in the same 16-word
	// block ~15/16 of the time. install and Flush clear it (a victim's tag
	// may change under it); behaviour is identical either way — the memo
	// only short-circuits the lookup, the LRU stamp still advances per hit.
	lastBlkKey isa.Word
	lastBlk    *block

	// curPID is the process-ID tag compared against each block's pid on
	// every tag match (PID-tagged lines, Smith §2.8's alternative to
	// flushing on a task switch). 0 outside the scenario layer.
	curPID int

	// Backing store for misses. Fetching through the Ecache charges its
	// stalls too, exactly like the real two-level hierarchy.
	Backing *ecache.Cache
	// mem is Backing's memory, the value store hits read from: the Icache
	// models presence only (see ecache.fill).
	mem *mem.Memory

	Stats Stats

	// FSM is the cache-miss finite state machine (paper Figure 4),
	// advanced by Fetch during miss service and observable by tests.
	FSM MissFSM

	// Obs, when non-nil, receives miss-service cycle attribution and miss
	// spans. serviceMiss charges its own MissPenalty to icache-miss and
	// brackets the backing reads so the Ecache's refill charges land on
	// ecache-ifetch (instruction side) instead of ecache-read (data side).
	Obs *obs.Sink

	// isCoprocInstr classifies an instruction word for NoCacheCoproc mode.
	isCoprocInstr func(isa.Word) bool
}

// New builds an Icache over the given Ecache.
func New(cfg Config, backing *ecache.Cache) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.BlockWords <= 0 || cfg.FetchBack <= 0 {
		panic("icache: bad config")
	}
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.BlockWords&(cfg.BlockWords-1) != 0 {
		panic("icache: sets and block words must be powers of two")
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]block, cfg.Sets),
		blkShift: log2(cfg.BlockWords),
		offMask:  isa.Word(cfg.BlockWords - 1),
		setMask:  isa.Word(cfg.Sets - 1),
		setBits:  log2(cfg.Sets),
		Backing:  backing,
		mem:      backing.Mem,
		isCoprocInstr: func(w isa.Word) bool {
			return isa.Decode(w).IsCoproc()
		},
	}
	// Flat backing arrays: one allocation for all blocks and two for all
	// per-word bits, instead of 2×sets×ways tiny slices. Machines are built
	// per experiment cell, so constructor cost is on the bench hot path.
	blocks := make([]block, cfg.Sets*cfg.Ways)
	bits := make([]bool, 2*cfg.Sets*cfg.Ways*cfg.BlockWords)
	valid, coproc := bits[:len(bits)/2], bits[len(bits)/2:]
	for i := range c.sets {
		c.sets[i] = blocks[i*cfg.Ways : (i+1)*cfg.Ways]
		for j := range c.sets[i] {
			k := (i*cfg.Ways + j) * cfg.BlockWords
			c.sets[i][j].valid = valid[k : k+cfg.BlockWords]
			c.sets[i][j].coproc = coproc[k : k+cfg.BlockWords]
		}
	}
	return c
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(a isa.Word) (set, tag isa.Word, off int) {
	blk := a >> c.blkShift
	return blk & c.setMask, blk >> c.setBits, int(a & c.offMask)
}

// Present reports whether a fetch of address a would hit, without updating
// any state.
func (c *Cache) Present(a isa.Word) bool {
	if c.cfg.Disabled {
		return false
	}
	set, tag, off := c.index(a)
	for i := range c.sets[set] {
		b := &c.sets[set][i]
		if b.inUse && b.tag == tag && b.pid == c.curPID && b.valid[off] {
			return true
		}
	}
	return false
}

// Fetch returns the instruction word at address a and the total stall in
// cycles (0 on a hit). On a miss it services the miss through the Ecache,
// fetching FetchBack sequential words, and drives the miss FSM through its
// states.
func (c *Cache) Fetch(a isa.Word) (isa.Word, int) {
	c.Stats.Fetches++
	// The hit memo is tested here rather than in hit, so a sequential fetch
	// that stays in the last block makes no call.
	if b := c.lastBlk; b != nil && a>>c.blkShift == c.lastBlkKey {
		if !b.valid[a&c.offMask] {
			return c.serviceMiss(a) // same block, word not (yet) valid
		}
		c.tick++
		b.use = c.tick
	} else if !c.hit(a) {
		return c.serviceMiss(a)
	}
	return c.mem.Peek(a), 0
}

// hit probes the sets for address a, updating the LRU stamp and the hit
// memo on a hit.
func (c *Cache) hit(a isa.Word) bool {
	if c.cfg.Disabled {
		return false
	}
	set, tag, off := c.index(a)
	for i := range c.sets[set] {
		b := &c.sets[set][i]
		if b.inUse && b.tag == tag && b.pid == c.curPID && b.valid[off] {
			c.tick++
			b.use = c.tick
			c.lastBlkKey = a >> c.blkShift
			c.lastBlk = b
			return true
		}
	}
	return false
}

// serviceMiss stalls MissPenalty cycles while FetchBack words come back over
// the data pins, plus whatever the Ecache access costs.
func (c *Cache) serviceMiss(a isa.Word) (isa.Word, int) {
	c.Stats.Misses++
	stall := c.cfg.MissPenalty
	c.FSM.Run(c.cfg.MissPenalty)
	o := c.Obs
	var start uint64
	if o != nil {
		o.Ledger.Add(obs.CauseIcacheMiss, uint64(c.cfg.MissPenalty))
		o.Ledger.BeginIFetch()
		start = o.Cycle()
	}
	var word isa.Word
	for i := 0; i < c.cfg.FetchBack; i++ {
		w, estall := c.Backing.Read(a + isa.Word(i))
		stall += estall
		c.Stats.WordsFetched++
		if i == 0 {
			word = w
		}
		c.install(a+isa.Word(i), w)
	}
	c.Stats.StallCycles += uint64(stall)
	if o != nil {
		o.Ledger.EndIFetch()
		if o.Tracer != nil {
			o.Tracer.Span(obs.TrackIcache, "cache", "imiss", start, uint64(stall), obs.AddrArg(uint32(a)))
		}
	}
	return word, stall
}

// install writes one fetched word into the cache (unless caching is off or
// the word is a non-cacheable coprocessor instruction under the ablation).
func (c *Cache) install(a isa.Word, w isa.Word) {
	if c.cfg.Disabled {
		return
	}
	c.lastBlk = nil // a victim's tag may change; drop the hit memo
	set, tag, off := c.index(a)
	// Existing block with this tag (owned by the current context)?
	for i := range c.sets[set] {
		b := &c.sets[set][i]
		if b.inUse && b.tag == tag && b.pid == c.curPID {
			c.mark(b, off, w)
			return
		}
	}
	// Allocate: LRU victim among the ways.
	victim := 0
	var minUse uint64 = ^uint64(0)
	for i := range c.sets[set] {
		b := &c.sets[set][i]
		if !b.inUse {
			victim = i
			break
		}
		if b.use < minUse {
			victim, minUse = i, b.use
		}
	}
	b := &c.sets[set][victim]
	b.inUse = true
	b.tag = tag
	b.pid = c.curPID
	for i := range b.valid {
		b.valid[i] = false
		b.coproc[i] = false
	}
	c.mark(b, off, w)
}

func (c *Cache) mark(b *block, off int, w isa.Word) {
	if c.cfg.NoCacheCoproc && c.isCoprocInstr(w) {
		// The rejected proposal: a bit set in the cache prevents coprocessor
		// instructions from ever being valid, forcing a miss each time so
		// the coprocessor can snoop the instruction off the memory bus.
		b.coproc[off] = true
		b.valid[off] = false
		return
	}
	b.valid[off] = true
	c.tick++
	b.use = c.tick
}

// Flush invalidates every block: the whole-cache invalidation point of a
// context switch under the scenario layer's flush policy, also used by tests
// and the tools.
func (c *Cache) Flush() {
	c.lastBlk = nil
	for s := range c.sets {
		for w := range c.sets[s] {
			b := &c.sets[s][w]
			b.inUse = false
			b.pid = 0
			for i := range b.valid {
				b.valid[i] = false
				b.coproc[i] = false
			}
		}
	}
}

// SetPID switches the cache's current process-ID tag (the PID-tagged-lines
// alternative to flushing, Smith §2.8): blocks installed by other contexts
// stay resident but stop hitting until their owner runs again. The hit memo
// is dropped because its entries were matched under the old PID.
func (c *Cache) SetPID(pid int) {
	if pid == c.curPID {
		return
	}
	c.curPID = pid
	c.lastBlk = nil
}

// StateBits returns the number of architected storage bits in the cache
// (Config.StateBits), used by the Figure 2 state-accounting test.
func (c *Cache) StateBits() int { return c.cfg.StateBits() }
