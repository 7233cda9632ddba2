package icache

import (
	"math/rand"
	"testing"

	"repro/internal/ecache"
	"repro/internal/isa"
	"repro/internal/mem"
)

// newIcache builds an Icache over a fresh memory preloaded with the given
// words at address 0.
func newIcache(cfg Config, words []isa.Word) *Cache {
	m := mem.New()
	m.LoadImage(0, words)
	e := ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus())
	return New(cfg, e)
}

func seqWords(n int) []isa.Word {
	w := make([]isa.Word, n)
	for i := range w {
		// Encode i in a decodable non-coprocessor instruction: addi r1,r0,i.
		w[i] = isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddi, Rd: 1, Off: int32(i % 1000)}.Encode()
	}
	return w
}

func TestMissThenHit(t *testing.T) {
	c := newIcache(DefaultConfig(), seqWords(64))
	if _, stall := c.Fetch(0); stall == 0 {
		t.Fatal("cold fetch should miss")
	}
	if _, stall := c.Fetch(0); stall != 0 {
		t.Fatal("refetch should hit")
	}
}

func TestDoubleFetchValidatesNextWord(t *testing.T) {
	c := newIcache(DefaultConfig(), seqWords(64))
	c.Fetch(0)
	if !c.Present(1) {
		t.Fatal("double fetch did not validate the next word")
	}
	if c.Present(2) {
		t.Fatal("word beyond the double fetch should not be valid")
	}
	if _, stall := c.Fetch(1); stall != 0 {
		t.Fatal("next word should hit after double fetch")
	}
}

func TestSubBlockPlacement(t *testing.T) {
	// Fetching word 5 allocates its block but must validate only words 5,6:
	// per-word valid bits, not whole-line fill.
	c := newIcache(DefaultConfig(), seqWords(64))
	c.Fetch(5)
	for w := isa.Word(0); w < 16; w++ {
		want := w == 5 || w == 6
		if c.Present(w) != want {
			t.Errorf("word %d present=%v, want %v", w, c.Present(w), want)
		}
	}
}

func TestDoubleFetchCrossesBlockBoundary(t *testing.T) {
	// Missing on the last word of a block fetches the first word of the
	// next block, which lives in a different set.
	c := newIcache(DefaultConfig(), seqWords(64))
	c.Fetch(15)
	if !c.Present(15) || !c.Present(16) {
		t.Fatal("cross-block double fetch failed")
	}
}

func TestSingleFetchConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FetchBack = 1
	c := newIcache(cfg, seqWords(64))
	c.Fetch(0)
	if c.Present(1) {
		t.Fatal("single-fetch config validated the next word")
	}
}

func TestDoubleFetchHalvesSequentialMisses(t *testing.T) {
	// On a purely sequential stream longer than the cache, double fetch must
	// produce exactly half the misses of single fetch — the paper's "almost
	// halves the miss ratio" in its best case.
	run := func(fetchBack int) float64 {
		cfg := DefaultConfig()
		cfg.FetchBack = fetchBack
		c := newIcache(cfg, seqWords(4096))
		for a := isa.Word(0); a < 4096; a++ {
			c.Fetch(a)
		}
		return c.Stats.MissRatio()
	}
	single, double := run(1), run(2)
	if single != 1.0 {
		t.Fatalf("sequential single-fetch miss ratio %.3f, want 1.0 (footprint ≫ cache)", single)
	}
	if double != 0.5 {
		t.Fatalf("sequential double-fetch miss ratio %.3f, want 0.5", double)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 8 ways per set: the 9th distinct block mapping to one set must evict
	// the least recently used of the 8.
	cfg := DefaultConfig()
	c := newIcache(cfg, seqWords(4096))
	// Blocks mapping to set 0: block numbers ≡ 0 mod 4 → addresses k*4*16.
	for i := 0; i < 8; i++ {
		c.Fetch(isa.Word(i * 64))
	}
	c.Fetch(0) // touch block 0: most recently used
	c.Fetch(8 * 64)
	if !c.Present(0) {
		t.Fatal("LRU evicted the most recently used block")
	}
	if c.Present(64) {
		t.Fatal("LRU kept the least recently used block")
	}
}

func TestDisabledCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disabled = true
	c := newIcache(cfg, seqWords(16))
	c.Fetch(0)
	c.Fetch(0)
	if c.Stats.Misses != 2 {
		t.Fatal("disabled cache should miss every fetch")
	}
	if c.Present(0) {
		t.Fatal("disabled cache should cache nothing")
	}
}

func TestNoCacheCoprocAblation(t *testing.T) {
	words := seqWords(16)
	// Word 3 is a coprocessor instruction.
	words[3] = isa.Instruction{Class: isa.ClassMem, Mem: isa.MemCpw, Off: isa.CoprocOff(1, 5)}.Encode()
	cfg := DefaultConfig()
	cfg.NoCacheCoproc = true
	c := newIcache(cfg, words)
	c.Fetch(3)
	if c.Present(3) {
		t.Fatal("coprocessor instruction was cached under NoCacheCoproc")
	}
	if _, stall := c.Fetch(3); stall == 0 {
		t.Fatal("refetch of non-cacheable coprocessor instruction should miss")
	}
	// Word 2 (ordinary) double-fetched alongside word 3 must still cache.
	c.Fetch(2)
	if !c.Present(2) {
		t.Fatal("ordinary instruction not cached")
	}
	// And under the final design the same instruction caches normally.
	cfg.NoCacheCoproc = false
	c2 := newIcache(cfg, words)
	c2.Fetch(3)
	if !c2.Present(3) {
		t.Fatal("final design must cache coprocessor instructions")
	}
}

func TestFetchReturnsInstructionWords(t *testing.T) {
	words := seqWords(8)
	c := newIcache(DefaultConfig(), words)
	for a := isa.Word(0); a < 8; a++ {
		w, _ := c.Fetch(a)
		if w != words[a] {
			t.Fatalf("fetch(%d) = %#x, want %#x", a, w, words[a])
		}
	}
	// And again, all hits.
	for a := isa.Word(0); a < 8; a++ {
		w, stall := c.Fetch(a)
		if w != words[a] || stall != 0 {
			t.Fatalf("refetch(%d) wrong", a)
		}
	}
}

func TestMissPenaltyConfig(t *testing.T) {
	for _, pen := range []int{2, 3} {
		cfg := DefaultConfig()
		cfg.MissPenalty = pen
		c := newIcache(cfg, seqWords(16))
		_, stall := c.Fetch(0)
		// Total = Icache penalty + Ecache miss (cold) service.
		ecacheStall := 0
		{
			m := mem.New()
			m.LoadImage(0, seqWords(16))
			e := ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus())
			_, s1 := e.Read(0)
			_, s2 := e.Read(1)
			ecacheStall = s1 + s2
		}
		if stall != pen+ecacheStall {
			t.Errorf("penalty %d: stall = %d, want %d", pen, stall, pen+ecacheStall)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := newIcache(DefaultConfig(), seqWords(16))
	c.Fetch(0)
	c.Flush()
	if c.Present(0) {
		t.Fatal("flush left words valid")
	}
}

func TestStateBitsDominatedByData(t *testing.T) {
	c := newIcache(DefaultConfig(), nil)
	bits := c.StateBits()
	// 512 words × 32 + 512 valid + 32 tags × 26 tag bits.
	want := 512*32 + 512 + 32*26
	if bits != want {
		t.Fatalf("state bits = %d, want %d", bits, want)
	}
}

func TestMissFSMWalk(t *testing.T) {
	var f MissFSM
	if f.State != MissIdle {
		t.Fatal("FSM must start Idle")
	}
	f.Step(false, 2)
	if f.State != MissIdle {
		t.Fatal("no miss, no transition")
	}
	f.Step(true, 2)
	if f.State != Miss1 {
		t.Fatalf("state %v after miss", f.State)
	}
	f.Step(false, 2)
	if f.State != Miss2 {
		t.Fatalf("state %v in cycle 2", f.State)
	}
	f.Step(false, 2)
	if f.State != MissIdle {
		t.Fatalf("state %v after service", f.State)
	}
	// 3-cycle service visits Miss3.
	var f3 MissFSM
	f3.Step(true, 3)
	for _, want := range []MissState{Miss2, Miss3, MissIdle} {
		f3.Step(false, 3)
		if f3.State != want {
			t.Fatalf("3-cycle service: state %v, want %v", f3.State, want)
		}
	}
	if f3.CyclesBusy != 3 {
		t.Fatalf("3-cycle service busy %d cycles", f3.CyclesBusy)
	}
}

func TestMissFSMStateTable(t *testing.T) {
	table := StateTable(2)
	want := [][2]MissState{{MissIdle, Miss1}, {Miss1, Miss2}, {Miss2, MissIdle}}
	if len(table) != len(want) {
		t.Fatalf("table %v", table)
	}
	for i := range want {
		if table[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, table[i], want[i])
		}
	}
}

func TestOrganizationSweep(t *testing.T) {
	// The design-space axes of the companion study (Agarwal et al. 1987):
	// at fixed 512-word capacity, associativity and block size trade miss
	// ratio against tag count. The paper chose 4 sets × 8 ways × 16 words
	// because fewer, larger blocks keep the tag store small enough to live
	// in the datapath (the 2-cycle miss), accepting "slightly lower miss
	// rates achievable by having smaller blocks".
	trace := make([]isa.Word, 0, 200000)
	// Loopy synthetic stream over a 4K-word footprint.
	pc := isa.Word(0)
	for i := 0; len(trace) < 200000; i++ {
		run := 6 + i%8
		for j := 0; j < run; j++ {
			trace = append(trace, pc)
			pc++
		}
		switch i % 7 {
		case 0, 1, 2:
			pc -= isa.Word(run) // tight loop revisits
		case 3:
			pc = isa.Word((i * 97) % 4096) // call elsewhere
		}
		pc %= 4096
	}
	type org struct {
		sets, ways, block int
	}
	orgs := []org{
		{4, 8, 16},  // as built: 32 tags
		{8, 4, 16},  // same tags, lower associativity
		{4, 16, 8},  // smaller blocks: 64 tags
		{8, 8, 8},   // smaller blocks: 64 tags
		{16, 8, 4},  // 128 tags — too many for the datapath
		{32, 16, 1}, // word blocks: 512 tags, the unbuildable extreme
	}
	miss := map[org]float64{}
	for _, o := range orgs {
		cfg := Config{Sets: o.sets, Ways: o.ways, BlockWords: o.block, FetchBack: 2, MissPenalty: 2}
		if cfg.SizeWords() != 512 {
			t.Fatalf("org %+v is not 512 words", o)
		}
		m := mem.New()
		e := ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus())
		ic := New(cfg, e)
		for _, a := range trace {
			ic.Fetch(a)
		}
		miss[o] = ic.Stats.MissRatio()
	}
	chosen := miss[org{4, 8, 16}]
	// Smaller blocks may do slightly better on miss ratio...
	best := chosen
	for _, m := range miss {
		if m < best {
			best = m
		}
	}
	// ...but not dramatically: the paper's point is that the implementation
	// (2 vs 3-cycle miss) mattered more than the organization.
	if chosen > 3*best+0.02 {
		t.Fatalf("chosen organization far off the sweep's best: %.4f vs %.4f (%v)", chosen, best, miss)
	}
	// The 2-vs-3-cycle service comparison dominates any organizational
	// delta at these miss levels.
	cfg := DefaultConfig()
	cfg.MissPenalty = 3
	m := mem.New()
	e := ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus())
	ic := New(cfg, e)
	for _, a := range trace {
		ic.Fetch(a)
	}
	cost3 := 1 + float64(ic.Stats.StallCycles)/float64(ic.Stats.Fetches)
	costChosen := 1 + chosen*2
	if cost3 <= costChosen {
		t.Fatalf("3-cycle service (%.3f) should cost more than the chosen 2-cycle org (%.3f)", cost3, costChosen)
	}
}

func TestDoubleFetchNeverHurts(t *testing.T) {
	// Property: on any access stream, double fetch produces no more misses
	// than single fetch with the same organization (prefetching the next
	// word can only add future hits; sub-block valid bits mean it displaces
	// nothing).
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mkTrace := func() []isa.Word {
			tr := make([]isa.Word, 30000)
			pc := isa.Word(0)
			for i := range tr {
				if rng.Intn(6) == 0 {
					pc = isa.Word(rng.Intn(8192))
				}
				tr[i] = pc
				pc++
			}
			return tr
		}
		tr := mkTrace()
		run := func(fb int) uint64 {
			cfg := DefaultConfig()
			cfg.FetchBack = fb
			m := mem.New()
			e := ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus())
			ic := New(cfg, e)
			for _, a := range tr {
				ic.Fetch(a)
			}
			return ic.Stats.Misses
		}
		if m2, m1 := run(2), run(1); m2 > m1 {
			t.Fatalf("seed %d: double fetch missed more (%d) than single (%d)", seed, m2, m1)
		}
	}
}

func TestFlushDropsBlocks(t *testing.T) {
	// Flush is the context-switch invalidation point: afterwards no fetch
	// may hit, and a word rewritten under the cache comes back new.
	m := mem.New()
	m.LoadImage(0, seqWords(64))
	c := New(DefaultConfig(), ecache.New(ecache.DefaultConfig(), m, mem.DefaultBus()))

	if w, stall := c.Fetch(3); stall == 0 || isa.Decode(w).Off != 3 {
		t.Fatalf("cold fetch: word %#x stall %d, want a miss returning Off 3", w, stall)
	}

	// A new address space is loaded over the old one (what a context switch
	// models): word 3 now holds a different instruction.
	want := isa.Instruction{Class: isa.ClassComputeImm, Imm: isa.ImmAddi, Rd: 2, Off: 777}.Encode()
	m.Write(3, want)
	c.Flush()

	if c.Present(3) {
		t.Fatal("word still present after flush")
	}
	w, stall := c.Fetch(3)
	if stall == 0 {
		t.Fatal("post-flush fetch must miss")
	}
	if w != want {
		t.Fatalf("post-flush fetch returned %#x, want the rewritten word %#x", w, want)
	}
}

func TestPIDTaggedLinesIsolateContexts(t *testing.T) {
	// Under the PID policy a switch is SetPID, not Flush: the other
	// context's lines stay resident but must not hit, and switching back
	// finds them warm.
	c := newIcache(DefaultConfig(), seqWords(64))

	if _, stall := c.Fetch(0); stall == 0 {
		t.Fatal("cold fetch should miss")
	}
	if _, stall := c.Fetch(0); stall != 0 {
		t.Fatal("refetch under the same PID should hit")
	}

	c.SetPID(1)
	if c.Present(0) {
		t.Fatal("PID 0's line visible to PID 1")
	}
	if _, stall := c.Fetch(0); stall == 0 {
		t.Fatal("first fetch under a new PID must miss")
	}
	if _, stall := c.Fetch(0); stall != 0 {
		t.Fatal("second fetch under the new PID should hit its own line")
	}

	// Both contexts' lines now coexist (same tag, different pid, separate
	// ways); switching back must hit PID 0's still-resident line.
	c.SetPID(0)
	if _, stall := c.Fetch(0); stall != 0 {
		t.Fatal("PID 0's line went cold across a tagged switch")
	}

	// Flush resets the whole cache regardless of tags.
	c.Flush()
	if c.Present(0) {
		t.Fatal("line survived a flush")
	}
}
