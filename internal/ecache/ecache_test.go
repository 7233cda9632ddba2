package ecache

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func newCache(cfg Config) *Cache {
	return New(cfg, mem.New(), mem.DefaultBus())
}

func TestHitAfterMiss(t *testing.T) {
	c := newCache(DefaultConfig())
	if _, stall := c.Read(100); stall == 0 {
		t.Fatal("cold read should miss")
	}
	if _, stall := c.Read(100); stall != 0 {
		t.Fatal("second read should hit")
	}
	// Same line, different word: a 4-word line covers 100..103.
	if _, stall := c.Read(101); stall != 0 {
		t.Fatal("same-line word should hit")
	}
	if c.Stats.ReadMisses != 1 || c.Stats.Reads != 3 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestDataValuesSurviveCache(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Write(500, 0xDEADBEEF)
	if v, _ := c.Read(500); v != 0xDEADBEEF {
		t.Fatalf("read back %#x", v)
	}
	// Evict by touching the conflicting line in a direct-mapped cache:
	// the conflicting address differs in the tag bits above the set index.
	conflict := isa.Word(500 + 64*1024)
	c.Read(conflict)
	if v, _ := c.Read(500); v != 0xDEADBEEF {
		t.Fatalf("value lost across eviction: %#x", v)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	cfg := DefaultConfig()
	c := newCache(cfg)
	a := isa.Word(0)
	b := isa.Word(64 * 1024) // same set, different tag
	c.Read(a)
	c.Read(b)
	if c.Contains(a) {
		t.Fatal("direct-mapped cache should have evicted a")
	}
	if !c.Contains(b) {
		t.Fatal("b should be resident")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 2
	c := newCache(cfg)
	a := isa.Word(0)
	b := isa.Word(64 * 1024)
	c.Read(a)
	c.Read(b)
	if !c.Contains(a) || !c.Contains(b) {
		t.Fatal("2-way cache should hold both conflicting lines")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{SizeWords: 64, LineWords: 4, Ways: 4, Repl: LRU, Write: CopyBack}
	c := newCache(cfg) // 4 sets of 4 ways
	// Fill set 0 with four lines: set = (a/4) % 4 == 0 → a = 0, 64, 128, 192.
	for i := 0; i < 4; i++ {
		c.Read(isa.Word(i * 64))
	}
	c.Read(0) // make line 0 most recently used
	c.Read(isa.Word(4 * 64))
	if !c.Contains(0) {
		t.Fatal("LRU evicted the most recently used line")
	}
	if c.Contains(64) {
		t.Fatal("LRU failed to evict the least recently used line")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	cfg := Config{SizeWords: 64, LineWords: 4, Ways: 4, Repl: FIFO, Write: CopyBack}
	c := newCache(cfg)
	for i := 0; i < 4; i++ {
		c.Read(isa.Word(i * 64))
	}
	c.Read(0) // hit; FIFO must NOT promote
	c.Read(isa.Word(4 * 64))
	if c.Contains(0) {
		t.Fatal("FIFO should have evicted the oldest line despite the recent hit")
	}
}

func TestWriteThroughTraffic(t *testing.T) {
	cfgWT := DefaultConfig()
	cfgWT.Write = WriteThrough
	wt := newCache(cfgWT)
	cb := newCache(DefaultConfig())
	// A write-heavy loop over a small working set.
	for pass := 0; pass < 10; pass++ {
		for a := isa.Word(0); a < 64; a++ {
			wt.Write(a, isa.Word(pass))
			cb.Write(a, isa.Word(pass))
		}
	}
	// Write-through must move (far) more words over the bus than copy-back.
	if wt.Bus.WordsCarried <= cb.Bus.WordsCarried*2 {
		t.Fatalf("write-through traffic %d not ≫ copy-back %d",
			wt.Bus.WordsCarried, cb.Bus.WordsCarried)
	}
	// Copy-back on a cached working set must not stall after warm-up.
	if cb.Stats.StallCycles > 200 {
		t.Fatalf("copy-back stalled %d cycles on a resident working set", cb.Stats.StallCycles)
	}
}

func TestWriteBackOnlyWhenDirty(t *testing.T) {
	cfg := Config{SizeWords: 16, LineWords: 4, Ways: 1, Repl: LRU, Write: CopyBack}
	c := newCache(cfg) // 4 lines direct mapped
	c.Read(0)          // clean line
	c.Read(16)         // evicts line 0 (set 0): no write-back
	if c.Stats.WriteBacks != 0 {
		t.Fatal("clean eviction caused a write-back")
	}
	c.Write(32, 1) // dirty line in set 0 (after eviction chain)
	c.Read(48)     // evicts dirty line
	if c.Stats.WriteBacks != 1 {
		t.Fatalf("dirty eviction write-backs = %d, want 1", c.Stats.WriteBacks)
	}
}

func TestFlush(t *testing.T) {
	c := newCache(DefaultConfig())
	c.Write(10, 1)
	c.Flush()
	if c.Contains(10) {
		t.Fatal("flush left lines resident")
	}
	if c.Stats.WriteBacks != 1 {
		t.Fatalf("flush write-backs = %d, want 1", c.Stats.WriteBacks)
	}
	if v, _ := c.Read(10); v != 1 {
		t.Fatalf("value lost across flush: %d", v)
	}
}

// TestFlushDrainsEveryFilledLine: a flush visits only the lines filled
// since the last one, so it must find every line however it was filled —
// across sets and ways, by prefetch, and into a way whose dirty line was
// evicted — and write back exactly the dirty ones.
func TestFlushDrainsEveryFilledLine(t *testing.T) {
	// 8 sets of 2 ways of 4-word lines: address a is in set (a/4)%8.
	cfg := Config{SizeWords: 64, LineWords: 4, Ways: 2, Repl: LRU, Write: CopyBack, Fetch: PrefetchOnMiss, LateMissExtra: 1}
	c := newCache(cfg)
	c.Write(0, 1)  // set 0 way 0, dirty
	c.Write(32, 2) // set 0 way 1, dirty
	c.Read(100)    // set 1 way 0; prefetches 104 into set 2 way 0
	c.Write(64, 3) // evicts dirty 0 from set 0 way 0, refills it dirty
	c.Read(0)      // evicts dirty 32 from set 0 way 1, refills 0 clean; prefetches 4 into set 1 way 1
	c.Write(40, 4) // set 2 way 1, dirty
	if c.Stats.WriteBacks != 2 || c.Stats.Prefetches != 2 {
		t.Fatalf("before the flush: %d write-backs, %d prefetches; want 2 and 2", c.Stats.WriteBacks, c.Stats.Prefetches)
	}
	valid, dirty := 0, 0
	for _, l := range c.lines {
		if l.valid {
			valid++
			if l.dirty {
				dirty++
			}
		}
	}
	if valid != 6 || dirty != 2 {
		t.Fatalf("%d valid lines, %d dirty; want 6 and 2 (64 and 40)", valid, dirty)
	}
	perLine := c.Bus.Latency + cfg.LineWords*c.Bus.PerWord
	stalls := c.Stats.StallCycles
	if got := c.Flush(); got != dirty*perLine {
		t.Fatalf("Flush stalled %d cycles, want %d (%d dirty lines at %d)", got, dirty*perLine, dirty, perLine)
	}
	if c.Stats.WriteBacks != 4 || c.Stats.StallCycles != stalls+uint64(dirty*perLine) {
		t.Fatalf("after the flush: %d write-backs, %d stall cycles; want 4 and %d", c.Stats.WriteBacks, c.Stats.StallCycles, stalls+uint64(dirty*perLine))
	}
	for _, a := range []isa.Word{0, 4, 32, 40, 64, 100, 104} {
		if c.Contains(a) {
			t.Errorf("address %d still resident after the flush", a)
		}
	}
	for i, l := range c.lines {
		if l != (line{}) {
			t.Errorf("line %d not cleared by the flush: %+v", i, l)
		}
	}
	if got := c.Flush(); got != 0 || c.Stats.WriteBacks != 4 {
		t.Fatalf("second Flush stalled %d cycles with %d write-backs; want 0 and 4", got, c.Stats.WriteBacks)
	}
	c.Write(32, 5)
	if got := c.Flush(); got != perLine {
		t.Fatalf("Flush after one dirty refill stalled %d cycles, want %d", got, perLine)
	}
}

func TestMissRatioShrinksWithCacheSize(t *testing.T) {
	// A classic trace-driven shape check: a random-walk-with-locality trace
	// must miss less in bigger caches (Smith, Figure 5 shape).
	trace := makeLocalityTrace(50000, 1<<16)
	prev := 2.0
	for _, size := range []int{1024, 4096, 16384, 65536} {
		cfg := Config{SizeWords: size, LineWords: 4, Ways: 2, Repl: LRU, Write: CopyBack}
		c := newCache(cfg)
		for _, a := range trace {
			c.Read(a)
		}
		mr := c.Stats.MissRatio()
		if mr >= prev {
			t.Errorf("miss ratio did not shrink: size %d → %.4f (prev %.4f)", size, mr, prev)
		}
		prev = mr
	}
}

func TestFIFOWorseThanLRU(t *testing.T) {
	// Smith measured FIFO ≈ 12% worse than LRU on average; at minimum FIFO
	// must not beat LRU materially on a strongly local trace.
	trace := makeLocalityTrace(80000, 1<<15)
	miss := func(r Replacement) float64 {
		cfg := Config{SizeWords: 4096, LineWords: 8, Ways: 4, Repl: r, Write: CopyBack}
		c := newCache(cfg)
		for _, a := range trace {
			c.Read(a)
		}
		return c.Stats.MissRatio()
	}
	lru, fifo := miss(LRU), miss(FIFO)
	if fifo < lru*0.98 {
		t.Errorf("FIFO (%.4f) materially beat LRU (%.4f)", fifo, lru)
	}
}

// makeLocalityTrace produces an address trace with loop/working-set locality:
// interleaved sequential runs and revisits to a slowly drifting hot region.
func makeLocalityTrace(n int, span isa.Word) []isa.Word {
	rng := rand.New(rand.NewSource(42))
	trace := make([]isa.Word, 0, n)
	hot := isa.Word(0)
	for len(trace) < n {
		switch rng.Intn(10) {
		case 0: // jump the hot region
			hot = isa.Word(rng.Intn(int(span)))
		case 1, 2, 3: // sequential run
			base := hot + isa.Word(rng.Intn(256))
			for i := 0; i < 16 && len(trace) < n; i++ {
				trace = append(trace, (base+isa.Word(i))%span)
			}
		default: // revisit hot region
			trace = append(trace, (hot+isa.Word(rng.Intn(64)))%span)
		}
	}
	return trace
}

func TestBadConfigPanics(t *testing.T) {
	bad := []Config{
		{},
		{SizeWords: 100, LineWords: 4, Ways: 1}, // not a power of two
		{SizeWords: 64, LineWords: 3, Ways: 1},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			newCache(cfg)
		}()
	}
}

func TestLateMissExtraCharged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LateMissExtra = 3
	c := newCache(cfg)
	_, stall1 := c.Read(0)
	cfg.LateMissExtra = 0
	c2 := newCache(cfg)
	_, stall0 := c2.Read(0)
	if stall1 != stall0+3 {
		t.Fatalf("late-miss extra not charged: %d vs %d", stall1, stall0)
	}
}

func TestPrefetchPoliciesReduceMisses(t *testing.T) {
	// Smith's finding (survey §2.1, Table 1): always-prefetch and tagged
	// prefetch cut the demand miss ratio sharply on sequential-ish streams;
	// prefetch-on-miss helps much less; tagged keeps the access overhead of
	// on-miss with nearly the benefit of always.
	trace := makeLocalityTrace(80000, 1<<15)
	run := func(p Prefetch) Stats {
		cfg := Config{SizeWords: 4096, LineWords: 8, Ways: 4, Repl: LRU, Write: CopyBack, Fetch: p}
		c := newCache(cfg)
		for _, a := range trace {
			c.Read(a)
		}
		return c.Stats
	}
	demand := run(PrefetchNone)
	always := run(PrefetchAlways)
	onMiss := run(PrefetchOnMiss)
	tagged := run(PrefetchTagged)

	if always.MissRatio() > 0.6*demand.MissRatio() {
		t.Errorf("always-prefetch miss %.4f not well below demand %.4f",
			always.MissRatio(), demand.MissRatio())
	}
	if tagged.MissRatio() > always.MissRatio()*1.3 {
		t.Errorf("tagged (%.4f) should be almost as good as always (%.4f)",
			tagged.MissRatio(), always.MissRatio())
	}
	if onMiss.MissRatio() < always.MissRatio() {
		t.Errorf("prefetch-on-miss (%.4f) should not beat always (%.4f)",
			onMiss.MissRatio(), always.MissRatio())
	}
	if onMiss.MissRatio() > demand.MissRatio() {
		t.Errorf("prefetch-on-miss (%.4f) should not be worse than demand (%.4f)",
			onMiss.MissRatio(), demand.MissRatio())
	}
	// Transfer-ratio ordering: always moves the most lines.
	if always.TransferRatio() <= tagged.TransferRatio() {
		t.Errorf("always transfer ratio %.4f should exceed tagged %.4f",
			always.TransferRatio(), tagged.TransferRatio())
	}
	if demand.Prefetches != 0 {
		t.Error("demand fetching must not prefetch")
	}
}

func TestPrefetchDoesNotStallProcessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fetch = PrefetchAlways
	c := newCache(cfg)
	c.Read(0) // miss + prefetch of the next line
	if _, stall := c.Read(isa.Word(cfg.LineWords)); stall != 0 {
		t.Fatal("prefetched line should hit without stall")
	}
}
