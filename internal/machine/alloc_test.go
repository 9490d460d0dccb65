package machine

import (
	"testing"

	"prosper/internal/mem"
)

// These tests pin the allocation cost of the simulator's hot access
// paths after the flat-event-core refactor: steady-state loads must not
// allocate on the Go heap, whichever level of the memory system they
// resolve in. testing.AllocsPerRun runs each body once to warm pools and
// lazily-grown queues before measuring, so the bounds here are true
// steady-state figures, not cold-start ones.

// allocEnv builds a machine, pre-faults the page under test so the TLB
// and page tables are warm, and returns a reusable read-completion
// callback (bound once, like the kernel's per-thread callbacks).
func allocEnv(t *testing.T) (m *Machine, core *Core, readDone func()) {
	t.Helper()
	m, core, _ = storeWarm(t)
	return m, core, func() {}
}

const addrUnderTest = uint64(0x10000)

func TestAllocsL1Hit(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone) // populate L1
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.Read(addrUnderTest, 8, readDone)
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("L1 hit load allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsL1MissL2Hit(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone) // populate L1+L2+L3
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.L1().Flush() // line is read-only clean: invalidate, no writeback
		m.Eng.Run()
		core.Read(addrUnderTest, 8, readDone)
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("TLB hit + L1 miss -> L2 hit allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsFullMissDeviceRoundTrip(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone)
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.L1().Flush()
		core.L2().Flush()
		m.Hier.L3.Flush()
		m.Eng.Run()
		core.Read(addrUnderTest, 8, readDone) // full miss: L1->L2->L3->DRAM
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("full miss -> device round trip allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsTLBMissPageWalk(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone)
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.TLB.Invalidate(addrUnderTest)
		core.Read(addrUnderTest, 8, readDone) // TLB miss: four-level walk through L2
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("TLB miss -> page walk allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkPageWalk measures a load that misses the TLB on a mapped
// page: the four dependent page-table reads through L2, the TLB fill and
// the L1-hit data access. It cycles through twice as many mapped pages
// as the TLB holds, so under LRU every load misses by eviction and no
// explicit invalidation runs in the loop. Each page's load lands on its
// own line offset, spreading the data lines over the L1's sets.
func BenchmarkPageWalk(b *testing.B) {
	m, core, _ := testEnv(nil)
	pages := uint64(2 * TLBEntries)
	addr := func(i uint64) uint64 {
		p := i % pages
		return addrUnderTest + p*mem.PageSize + p%(mem.PageSize/mem.LineSize)*mem.LineSize
	}
	for i := range pages {
		core.Write(addr(i), []byte{1}, nil)
	}
	m.Eng.Run()
	readDone := func() {}
	for i := range pages { // one lap warms the pools and the caches
		core.Read(addr(i), 8, readDone)
		m.Eng.Run()
	}
	walks := core.Counters.Get("core.page_walks")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Read(addr(uint64(i)), 8, readDone)
		m.Eng.Run()
	}
	b.StopTimer()
	if got := core.Counters.Get("core.page_walks") - walks; got != uint64(b.N) {
		b.Fatalf("page walks = %d, want %d", got, b.N)
	}
}
