package cache

import (
	"testing"
	"testing/quick"

	"prosper/internal/mem"
	"prosper/internal/sim"
)

// immediatePort completes every access instantly and counts them.
type immediatePort struct {
	reads, writes int
	eng           *sim.Engine
	latency       sim.Time
}

func (p *immediatePort) Access(write bool, addr uint64, done sim.Done) {
	if write {
		p.writes++
	} else {
		p.reads++
	}
	if done.Valid() {
		p.eng.ScheduleDone(p.latency, done)
	}
}

func testCache(eng *sim.Engine, mshrs int) (*Cache, *immediatePort) {
	below := &immediatePort{eng: eng, latency: 100}
	cfg := Config{Name: "t", Size: 8 * 1024, Ways: 4, Latency: 3, MSHRs: mshrs}
	return New(eng, cfg, below), below
}

func TestCacheMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	c, below := testCache(eng, 4)
	var missT, hitT sim.Time
	c.Access(false, 0x1000, sim.Thunk(sim.CompCache, func() { missT = eng.Now() }))
	eng.Run()
	c.Access(false, 0x1008, sim.Thunk(sim.CompCache, func() { hitT = eng.Now() - missT }))
	eng.Run()
	if missT < 100 {
		t.Fatalf("miss too fast: %d", missT)
	}
	if hitT != 3 {
		t.Fatalf("hit latency = %d, want 3", hitT)
	}
	if below.reads != 1 {
		t.Fatalf("below reads = %d, want 1 (second access must hit)", below.reads)
	}
	if c.Counters.Get("t.hits") != 1 || c.Counters.Get("t.misses") != 1 {
		t.Fatalf("counters: %v", c.Counters.Snapshot())
	}
}

func TestCacheMSHRCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	c, below := testCache(eng, 4)
	completed := 0
	for i := 0; i < 5; i++ {
		c.Access(false, 0x2000+uint64(i*8), sim.Thunk(sim.CompCache, func() { completed++ }))
	}
	eng.Run()
	if completed != 5 {
		t.Fatalf("completed = %d", completed)
	}
	if below.reads != 1 {
		t.Fatalf("below reads = %d, want 1 (same line must coalesce)", below.reads)
	}
	if c.Counters.Get("t.mshr_coalesced") != 4 {
		t.Fatalf("coalesced = %d", c.Counters.Get("t.mshr_coalesced"))
	}
}

func TestCacheMSHRExhaustionStalls(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 2)
	completed := 0
	for i := 0; i < 6; i++ {
		c.Access(false, uint64(i)*mem.LineSize, sim.Thunk(sim.CompCache, func() { completed++ }))
	}
	if c.Counters.Get("t.mshr_stalls") == 0 {
		t.Fatal("expected MSHR stalls")
	}
	eng.Run()
	if completed != 6 {
		t.Fatalf("completed = %d, want 6", completed)
	}
}

func TestCacheDirtyEvictionWritesBack(t *testing.T) {
	eng := sim.NewEngine()
	c, below := testCache(eng, 8)
	// 8 KiB, 4-way, 64B lines -> 32 sets. Lines mapping to set 0 are
	// 32*64=2048 bytes apart. Fill set 0 with 4 dirty lines then a 5th.
	stride := uint64(32 * mem.LineSize)
	for i := 0; i < 4; i++ {
		c.Access(true, uint64(i)*stride, sim.Done{})
	}
	eng.Run()
	writesBefore := below.writes
	c.Access(true, 4*stride, sim.Done{})
	eng.Run()
	if below.writes != writesBefore+1 {
		t.Fatalf("expected exactly one writeback, got %d", below.writes-writesBefore)
	}
	if c.Counters.Get("t.writebacks") != 1 {
		t.Fatalf("writebacks counter = %d", c.Counters.Get("t.writebacks"))
	}
}

func TestCacheLRUVictimSelection(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 8)
	stride := uint64(32 * mem.LineSize)
	for i := 0; i < 4; i++ {
		c.Access(false, uint64(i)*stride, sim.Done{})
	}
	eng.Run()
	// Touch line 0 so line 1 becomes LRU.
	c.Access(false, 0, sim.Done{})
	eng.Run()
	c.Access(false, 4*stride, sim.Done{}) // evicts line 1
	eng.Run()
	if !c.Contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(stride) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheFlush(t *testing.T) {
	eng := sim.NewEngine()
	c, below := testCache(eng, 8)
	c.Access(true, 0x100, sim.Done{})
	c.Access(false, 0x200, sim.Done{})
	eng.Run()
	c.Flush()
	eng.Run()
	if c.Contains(0x100) || c.Contains(0x200) {
		t.Fatal("flush left lines resident")
	}
	if below.writes != 1 {
		t.Fatalf("flush writebacks = %d, want 1 (only the dirty line)", below.writes)
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	ctl := mem.NewController(eng)
	h := NewHierarchy(eng, 2, PortFunc(ctl.Access))
	var coldT, warmT sim.Time
	start := eng.Now()
	h.CorePort(0).Access(false, 0x4000, sim.Thunk(sim.CompCache, func() { coldT = eng.Now() - start }))
	eng.Run()
	start = eng.Now()
	h.CorePort(0).Access(false, 0x4000, sim.Thunk(sim.CompCache, func() { warmT = eng.Now() - start }))
	eng.Run()
	// Cold miss must traverse L1+L2+L3+DRAM; warm hit costs L1 latency.
	if coldT < 135 {
		t.Fatalf("cold access too fast: %d", coldT)
	}
	if warmT != 3 {
		t.Fatalf("warm hit = %d, want 3", warmT)
	}
	// Other core's L1 must not contain the line (private L1s).
	if h.CorePort(1).Contains(0x4000) {
		t.Fatal("line leaked into other core's L1")
	}
}

func TestHierarchyNVMSlower(t *testing.T) {
	eng := sim.NewEngine()
	ctl := mem.NewController(eng)
	h := NewHierarchy(eng, 1, PortFunc(ctl.Access))
	var dramT, nvmT sim.Time
	start := eng.Now()
	h.CorePort(0).Access(false, 0x10000, sim.Thunk(sim.CompCache, func() { dramT = eng.Now() - start }))
	eng.Run()
	start = eng.Now()
	h.CorePort(0).Access(false, mem.NVMBase+0x10000, sim.Thunk(sim.CompCache, func() { nvmT = eng.Now() - start }))
	eng.Run()
	if nvmT <= dramT {
		t.Fatalf("NVM miss (%d) should be slower than DRAM miss (%d)", nvmT, dramT)
	}
}

// Property: after any access sequence every valid line appears in exactly
// the set its address maps to, no two ways of a set hold the same tag,
// each set's valid mask matches its tags, and its recency order lists
// every way once.
func TestCacheTagInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		eng := sim.NewEngine()
		c, _ := testCache(eng, 4)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(w, uint64(a)*8, sim.Done{})
		}
		eng.Run()
		ways := c.cfg.Ways
		for s, st := range c.sets {
			seen := map[uint64]bool{}
			for way, tag := range st.tags[:ways] {
				if (tag&tagValid != 0) != (st.valid>>way&1 != 0) {
					return false // valid mask disagrees with the tag
				}
				if tag&tagValid == 0 {
					continue
				}
				line := addrOf(tag)
				if seen[line] {
					return false // duplicate tag in one set
				}
				seen[line] = true
				if c.setFor(line) != s {
					return false // line in the wrong set
				}
			}
			var ranked uint32
			for k := range ways {
				ranked |= 1 << (st.order >> (4 * k) & 0xF)
			}
			if ranked != 1<<ways-1 {
				return false // recency order is not a permutation of the ways
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: reads after the hierarchy settles always complete, regardless
// of interleaving, and total hits+misses equals total accesses.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		eng := sim.NewEngine()
		c, _ := testCache(eng, 3)
		done := 0
		for _, a := range addrs {
			c.Access(false, uint64(a)*mem.LineSize, sim.Thunk(sim.CompCache, func() { done++ }))
		}
		eng.Run()
		total := c.Counters.Get("t.hits") + c.Counters.Get("t.misses")
		return done == len(addrs) && total == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
