// Package ecache implements the MIPS-X external cache (Ecache) and the
// generic set-associative cache model behind it.
//
// The paper attaches a 64K-word external cache to the processor: data
// references and instruction references that miss in the on-chip Icache go
// to the Ecache; the Ecache talks to main memory over a shared bus. The
// Ecache uses a *late miss* signal — it tells the processor at the beginning
// of the WB cycle whether the MEM-cycle access hit, and on a miss the
// processor re-executes the access until the cache has the data.
//
// The same cache model doubles as the trace-driven simulator used for the
// Smith-survey ablations (experiment E10): the paper derived its Ecache
// effect estimates from exactly this style of trace-driven simulation
// (Smith, "Cache Memories", Computing Surveys 1982).
package ecache

import (
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Replacement selects the replacement policy within a set.
type Replacement uint8

// Replacement policies (Smith §2.4: LRU, FIFO and Rand are the candidates).
const (
	LRU Replacement = iota
	FIFO
	Random
)

// Prefetch selects the cache fetch algorithm (Smith §2.1): demand fetching
// or one-block-lookahead prefetching — "the only possible line to prefetch
// is the immediately sequential one".
type Prefetch uint8

const (
	// PrefetchNone is demand fetching.
	PrefetchNone Prefetch = iota
	// PrefetchAlways prefetches line i+1 on every reference to line i.
	PrefetchAlways
	// PrefetchOnMiss prefetches line i+1 only when line i missed.
	PrefetchOnMiss
	// PrefetchTagged prefetches line i+1 on the first demand reference to
	// line i (Gindele's tagged prefetch: prefetched lines carry a zero tag
	// bit until referenced).
	PrefetchTagged
)

// WritePolicy selects how stores reach main memory (Smith §2.5).
type WritePolicy uint8

const (
	// CopyBack stores modify only the cache; dirty lines are written back on
	// eviction. Fetch-on-write.
	CopyBack WritePolicy = iota
	// WriteThrough stores go straight to memory; no fetch-on-write.
	WriteThrough
)

// Config parameterizes the cache. The zero value is not useful; call
// DefaultConfig for the paper's Ecache.
type Config struct {
	SizeWords int // total data capacity in words
	LineWords int // line (block) size in words
	Ways      int // associativity (1 = direct mapped)
	Repl      Replacement
	Write     WritePolicy
	Fetch     Prefetch

	// LateMissExtra is the additional stall charged because hit/miss is only
	// known at the start of the next cycle (the paper's late-miss signal).
	LateMissExtra int
}

// DefaultConfig is the Ecache as built: 64K words, 4-word lines, direct
// mapped (external caches of the era were direct mapped for speed — the
// Ecache is on the processor's critical fetch path), copy-back, late miss.
func DefaultConfig() Config {
	return Config{
		SizeWords:     64 * 1024,
		LineWords:     4,
		Ways:          1,
		Repl:          LRU,
		Write:         CopyBack,
		LateMissExtra: 1,
	}
}

// Stats accumulates cache behaviour.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	WriteBacks  uint64 // dirty lines written to memory (copy-back)
	StallCycles uint64 // total processor stall cycles caused by this cache
	Prefetches  uint64 // lines transferred by the prefetch algorithm
}

// TransferRatio is Smith's metric: lines moved (demand misses + prefetches)
// per access.
func (s Stats) TransferRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()+s.Prefetches) / float64(s.Accesses())
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns the total miss count. Under write-through, write misses do
// not allocate but still count as misses for ratio purposes (Smith counts
// each write as a miss in his write-through comparison; we keep read and
// write misses separate so both conventions can be reported).
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns misses per access.
func (s Stats) MissRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

type line struct {
	tag   isa.Word
	valid bool
	dirty bool
	// refd is the tagged-prefetch reference bit: false until the line's
	// first demand reference (prefetched lines arrive with it clear).
	refd bool
	// use is the LRU timestamp or FIFO insertion order, policy dependent.
	// 32 bits suffice: it counts this cache's touches, bounded by the
	// machine's 50M-cycle run limit at a handful of accesses per cycle —
	// far from wrap — and the narrower line halves construction memclr cost.
	use uint32
}

// Cache is a set-associative cache in front of main memory.
type Cache struct {
	cfg Config
	// lines is the flat way array: set s occupies lines[s*ways:(s+1)*ways].
	// A [][]line set table would add numSets slice headers — 384KB of
	// GC-scanned pointers per machine at the default geometry, allocated on
	// the experiment engine's one-machine-per-cell hot path.
	lines []line
	// filled holds the index in lines of every line that became valid
	// since the last Flush, so a flush visits those and not the whole
	// array: a context switch drains a cache that one quantum filled only
	// in part.
	filled   []int32
	ways     int
	setShift uint // log2(LineWords)
	setBits  uint // log2(number of sets)
	setMask  isa.Word
	tick     uint64
	rng      *rand.Rand

	Mem *mem.Memory
	Bus *mem.Bus

	Stats Stats

	// Obs, when non-nil, receives processor-stall attribution and miss
	// spans. Read/Write charge the stalls they return; arbitration waits
	// inside fill are carved out to the bus-wait cause, and reads issued
	// while the Icache is refilling are re-attributed to ecache-ifetch by
	// the ledger's BeginIFetch bracket. Prefetch fills charge nothing — they
	// never stall the processor.
	Obs *obs.Sink
}

// New builds a cache over the given memory and bus. Config values must be
// powers of two where structural (line words, way count divides evenly).
func New(cfg Config, m *mem.Memory, bus *mem.Bus) *Cache {
	if cfg.SizeWords <= 0 || cfg.LineWords <= 0 || cfg.Ways <= 0 {
		panic("ecache: bad config")
	}
	numLines := cfg.SizeWords / cfg.LineWords
	numSets := numLines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 || cfg.LineWords&(cfg.LineWords-1) != 0 {
		panic("ecache: sizes must be powers of two")
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, numLines),
		ways:     cfg.Ways,
		setShift: log2(cfg.LineWords),
		setBits:  log2(numSets),
		setMask:  isa.Word(numSets - 1),
		rng:      rand.New(rand.NewSource(0x5CAC4E)),
		Mem:      m,
		Bus:      bus,
	}
}

// set returns the ways of set s, a view into the flat line array.
func (c *Cache) set(s isa.Word) []line {
	i := int(s) * c.ways
	return c.lines[i : i+c.ways]
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(a isa.Word) (set isa.Word, tag isa.Word) {
	blk := a >> c.setShift
	return blk & c.setMask, blk >> c.setBits
}

// lookup finds the way holding tag in set s, or -1.
func (c *Cache) lookup(s, tag isa.Word) int {
	ways := c.set(s)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim chooses the way to replace in set s per the configured policy.
func (c *Cache) victim(s isa.Word) int {
	ways := c.set(s)
	for i := range ways {
		if !ways[i].valid {
			return i
		}
	}
	switch c.cfg.Repl {
	case Random:
		return c.rng.Intn(len(ways))
	default: // LRU and FIFO both evict the smallest 'use'
		v, min := 0, ways[0].use
		for i := 1; i < len(ways); i++ {
			if ways[i].use < min {
				v, min = i, ways[i].use
			}
		}
		return v
	}
}

// touch updates replacement state on a hit.
func (c *Cache) touch(s isa.Word, way int) {
	if c.cfg.Repl == LRU {
		c.tick++
		c.set(s)[way].use = uint32(c.tick)
	}
	// FIFO and Random ignore hits.
}

// fill allocates a line for tag in set s, performing any needed write-back,
// and returns (way, stall cycles spent on the bus, arbitration wait within
// that stall).
func (c *Cache) fill(s, tag isa.Word) (int, int, int) {
	way := c.victim(s)
	stall, wait := 0, 0
	l := &c.set(s)[way]
	if !l.valid {
		c.filled = append(c.filled, int32(int(s)*c.ways+way))
	}
	if l.valid && l.dirty {
		// Copy-back of the evicted line.
		c.Stats.WriteBacks++
		base := c.lineBase(s, l.tag)
		for i := 0; i < c.cfg.LineWords; i++ {
			c.Mem.Write(base+isa.Word(i), c.Mem.Peek(base+isa.Word(i)))
		}
		cost, w := c.Bus.TransferCostWait(c.cfg.LineWords)
		stall += cost
		wait += w
	}
	// Fetch the new line. (Data contents live in main memory in this model;
	// the cache tracks presence and cost, which is what every experiment
	// measures. Correctness of data values is preserved because stores under
	// copy-back still update the backing memory immediately — the "dirty"
	// accounting drives cost, not value storage.)
	base := c.lineBase(s, tag)
	for i := 0; i < c.cfg.LineWords; i++ {
		c.Mem.Read(base + isa.Word(i))
	}
	cost, w := c.Bus.TransferCostWait(c.cfg.LineWords)
	stall += cost
	wait += w
	c.tick++
	*l = line{tag: tag, valid: true, use: uint32(c.tick)}
	return way, stall, wait
}

// lineBase reconstructs the first word address of a line from set+tag.
func (c *Cache) lineBase(s, tag isa.Word) isa.Word {
	return (tag<<c.setBits | s) << c.setShift
}

// Read performs a processor read. It returns the word and the number of
// stall cycles the processor must spend (0 on a hit; bus cost plus the
// late-miss penalty on a miss).
func (c *Cache) Read(a isa.Word) (isa.Word, int) {
	c.Stats.Reads++
	s, tag := c.index(a)
	ways := c.set(s)
	for i := range ways {
		ln := &ways[i]
		if !ln.valid || ln.tag != tag {
			continue
		}
		// Hit path, resolved to one line pointer: replacement touch,
		// tagged-prefetch reference bit, then the data word.
		if c.cfg.Repl == LRU {
			c.tick++
			ln.use = uint32(c.tick)
		}
		first := !ln.refd
		ln.refd = true
		switch c.cfg.Fetch {
		case PrefetchAlways:
			c.prefetchNext(a)
		case PrefetchTagged:
			if first {
				c.prefetchNext(a)
			}
		}
		return c.Mem.Peek(a), 0
	}
	c.Stats.ReadMisses++
	way, stall, wait := c.fill(s, tag)
	c.set(s)[way].refd = true
	stall += c.cfg.LateMissExtra
	c.Stats.StallCycles += uint64(stall)
	if o := c.Obs; o != nil {
		o.Ledger.Stall(obs.CauseEcacheRead, uint64(stall), uint64(wait))
		if o.Tracer != nil {
			o.Tracer.Span(obs.TrackEcache, "cache", "dmiss-read", o.Cycle(), uint64(stall), obs.AddrArg(uint32(a)))
		}
	}
	switch c.cfg.Fetch {
	case PrefetchAlways, PrefetchOnMiss, PrefetchTagged:
		c.prefetchNext(a)
	}
	return c.Mem.Peek(a), stall
}

// prefetchNext brings the sequentially next line into the cache (one block
// lookahead). The transfer occupies the bus but does not stall the
// processor: Smith's implementations move prefetches in otherwise idle
// cache cycles.
func (c *Cache) prefetchNext(a isa.Word) {
	na := (a | isa.Word(c.cfg.LineWords-1)) + 1
	s, tag := c.index(na)
	if c.lookup(s, tag) >= 0 {
		return
	}
	c.Stats.Prefetches++
	// Arrives with refd clear (tagged prefetch semantics). The fill's cost
	// (and any arbitration wait) is deliberately dropped: prefetches move in
	// otherwise idle cycles and never stall the processor, so the ledger
	// charges nothing for them either.
	c.fill(s, tag)
}

// Write performs a processor write, returning stall cycles.
func (c *Cache) Write(a, w isa.Word) int {
	c.Stats.Writes++
	s, tag := c.index(a)
	way := c.lookup(s, tag)
	stall := 0
	switch c.cfg.Write {
	case CopyBack:
		if way < 0 {
			c.Stats.WriteMisses++
			var wait int
			way, stall, wait = c.fill(s, tag)
			stall += c.cfg.LateMissExtra
			c.Stats.StallCycles += uint64(stall)
			if o := c.Obs; o != nil {
				o.Ledger.Stall(obs.CauseEcacheWrite, uint64(stall), uint64(wait))
				if o.Tracer != nil {
					o.Tracer.Span(obs.TrackEcache, "cache", "dmiss-write", o.Cycle(), uint64(stall), obs.AddrArg(uint32(a)))
				}
			}
		} else {
			c.touch(s, way)
		}
		c.set(s)[way].dirty = true
		c.Mem.Write(a, w) // see fill: memory is the value store
	case WriteThrough:
		if way >= 0 {
			c.touch(s, way)
		} else {
			c.Stats.WriteMisses++
			// No allocate on write.
		}
		c.Mem.Write(a, w)
		// A buffered write-through rarely stalls the processor (Smith §2.5:
		// a 4-deep store buffer absorbs nearly all of it); we charge the
		// bus for traffic but not the processor, unless the design disabled
		// buffering via LateMissExtra-style accounting elsewhere.
		c.Bus.TransferCost(1)
	}
	return stall
}

// Flush writes back all dirty lines and invalidates the cache, returning
// the stall cycles the write-backs cost the processor. Unlike evictions
// inside fill (whose cost rides the miss that triggered them), a flush is
// its own stall source — the scenario layer's context switches drain the
// cache while the processor waits — so Flush charges Stats.StallCycles and
// the ledger's flush-refill cause itself, with arbitration waits carved out
// to bus-wait as everywhere else. Only the lines filled since the last
// flush can be valid, so only those are visited; every write-back costs
// the same, so their order changes no total.
func (c *Cache) Flush() int {
	stall, wait := 0, 0
	for _, i := range c.filled {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.Stats.WriteBacks++
			cost, w := c.Bus.TransferCostWait(c.cfg.LineWords)
			stall += cost
			wait += w
		}
		*l = line{}
	}
	c.filled = c.filled[:0]
	if stall > 0 {
		c.Stats.StallCycles += uint64(stall)
		if o := c.Obs; o != nil {
			o.Ledger.Stall(obs.CauseFlushRefill, uint64(stall), uint64(wait))
			if o.Tracer != nil {
				o.Tracer.Span(obs.TrackEcache, "cache", "flush", o.Cycle(), uint64(stall), obs.Arg{})
			}
		}
	}
	return stall
}

// Contains reports whether address a currently hits, without updating any
// state (used by tests).
func (c *Cache) Contains(a isa.Word) bool {
	s, tag := c.index(a)
	return c.lookup(s, tag) >= 0
}
