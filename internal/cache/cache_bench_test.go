package cache

import (
	"testing"

	"prosper/internal/mem"
	"prosper/internal/sim"
)

// BenchmarkCacheHit measures the hit hot path. Before counter handles
// were precomputed, every access allocated for the "<name>.hits" key
// concatenation; with handles the steady-state path is allocation-free.
func BenchmarkCacheHit(b *testing.B) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 4)
	c.Access(false, 0x1000, sim.Done{})
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(false, 0x1000, sim.Done{})
	}
}

// BenchmarkCacheMissCoalesced measures the coalescing miss path, which
// previously composed two counter keys per access.
func BenchmarkCacheMissCoalesced(b *testing.B) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 4)
	// Leave one fetch permanently in flight by never running the engine:
	// every further access to the line coalesces onto its MSHR.
	c.Access(false, 0x2000, sim.Done{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(false, 0x2000, sim.Done{})
	}
	b.StopTimer()
	if got := int(c.Counters.Get("t.mshr_coalesced")); got != b.N {
		b.Fatalf("coalesced = %d, want %d", got, b.N)
	}
}

// TestCacheHistograms checks the miss-latency and MSHR-occupancy
// distributions record what the counters say happened.
func TestCacheHistograms(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 4)
	c.Access(false, 0x1000, sim.Done{}) // miss
	c.Access(false, 0x4000, sim.Done{}) // second miss, occupancy 2
	eng.Run()
	c.Access(false, 0x1000, sim.Done{}) // hit: no new samples
	eng.Run()

	ml := c.Histograms.Get("miss_latency")
	if ml.Count() != 2 {
		t.Fatalf("miss_latency count = %d, want 2", ml.Count())
	}
	// Line fetch = below latency (100) + fill bookkeeping; at least 100.
	if ml.Min() < 100 {
		t.Fatalf("miss latency min = %d, want >= 100", ml.Min())
	}
	occ := c.Histograms.Get("mshr_occupancy")
	if occ.Count() != 2 || occ.Max() != 2 || occ.Min() != 1 {
		t.Fatalf("mshr_occupancy count/min/max = %d/%d/%d, want 2/1/2",
			occ.Count(), occ.Min(), occ.Max())
	}
}

// missEvictCache returns a 16-way level whose every set is full of dirty
// lines, and an access that misses: a cycle of ways+1 lines per set
// under LRU never hits, so each access runs miss, fill, victim choice
// and a dirty writeback.
func missEvictCache() (*immediatePort, func()) {
	const sets, ways = 64, 16
	eng := sim.NewEngine()
	below := &immediatePort{eng: eng, latency: 100}
	c := New(eng, Config{Name: "t", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 12, MSHRs: 8}, below)
	lines := uint64(sets * (ways + 1))
	var i uint64
	access := func() {
		c.Access(true, i%lines*mem.LineSize, sim.Done{})
		eng.Run()
		i++
	}
	for range lines {
		access()
	}
	return below, access
}

// BenchmarkCacheMissEvict measures the eviction path: one op is a miss,
// the fill, the victim choice and a posted writeback of a dirty line.
func BenchmarkCacheMissEvict(b *testing.B) {
	below, access := missEvictCache()
	writes := below.writes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
	b.StopTimer()
	if got := below.writes - writes; got != b.N {
		b.Fatalf("writebacks = %d, want %d", got, b.N)
	}
}

func TestCacheMissEvictDoesNotAllocate(t *testing.T) {
	below, access := missEvictCache()
	writes := below.writes
	if allocs := testing.AllocsPerRun(200, access); allocs != 0 {
		t.Fatalf("miss with dirty eviction allocates %.1f times per access, want 0", allocs)
	}
	if got := below.writes - writes; got != 201 {
		t.Fatalf("writebacks = %d, want one per access (201)", got)
	}
}

// BenchmarkCacheLookupSpread measures the hit path when hits spread over
// every set of an L3-sized level, so each lookup lands on a set record
// the host has likely evicted from its own L1. The level holds exactly
// its sets×ways lines; an odd stride through them visits every line,
// and so every set, once per lap.
func BenchmarkCacheLookupSpread(b *testing.B) {
	eng := sim.NewEngine()
	below := &immediatePort{eng: eng, latency: 100}
	cfg := L3Config(1)
	c := New(eng, cfg, below)
	lines := uint64(cfg.Size / mem.LineSize)
	for l := range lines {
		c.Access(false, l*mem.LineSize, sim.Done{})
		eng.Run()
	}
	hits := c.Counters.Get("l3.hits")
	const stride = 2053 // odd, so it is coprime with the power-of-two line count
	b.ReportAllocs()
	b.ResetTimer()
	var l uint64
	for i := 0; i < b.N; i++ {
		c.Access(false, l*mem.LineSize, sim.Done{})
		l = (l + stride) & (lines - 1)
	}
	b.StopTimer()
	if got := c.Counters.Get("l3.hits") - hits; got != uint64(b.N) {
		b.Fatalf("hits = %d, want %d", got, b.N)
	}
}
