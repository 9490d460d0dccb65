package machine

import (
	"testing"

	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/vm"
)

// twoCoreEnv binds two cores to one shared address space.
func twoCoreEnv(t *testing.T) (*Machine, *Core, *Core) {
	t.Helper()
	m := New(Config{Cores: 2})
	as := vm.NewAddressSpace(m.DRAMFrames, m.NVMFrames)
	if err := as.AddVMA(&vm.VMA{Lo: 0x10000, Hi: 0x40_0000, Kind: vm.KindHeap, Writable: true, ThreadID: -1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cores {
		c := c
		c.AS = as
		c.OnFault = func(vaddr uint64, write bool) error {
			_, err := as.HandleFault(vaddr, write)
			return err
		}
	}
	return m, m.Cores[0], m.Cores[1]
}

func TestTwoCoresShareL3(t *testing.T) {
	m, c0, c1 := twoCoreEnv(t)
	// Core 0 brings a line into the shared L3 via its private L1/L2.
	done := false
	c0.Read(0x20000, 8, func() { done = true })
	m.Eng.RunWhile(func() bool { return !done })
	m.Eng.RunUntil(m.Eng.Now() + 10_000)

	// Core 1's first access: private L1/L2 miss, shared L3 hit — far
	// faster than a DRAM round trip.
	l3HitsBefore := m.Hier.L3.Counters.Get("l3.hits")
	start := m.Eng.Now()
	var elapsed sim.Time
	done = false
	c1.Read(0x20000, 8, func() { elapsed = m.Eng.Now() - start; done = true })
	m.Eng.RunWhile(func() bool { return !done })
	if m.Hier.L3.Counters.Get("l3.hits") == l3HitsBefore {
		t.Fatal("second core missed the shared L3")
	}
	// L1(3)+L2(12)+L3(20) plus core 1's own page walk (~4 dependent L2
	// reads): well under the ~600-cycle cold chain that ends in DRAM.
	if elapsed > 350 {
		t.Fatalf("cross-core L3 hit took %d cycles", elapsed)
	}
}

func TestTwoCoresContendOnDRAM(t *testing.T) {
	// The same burst takes longer when a second core saturates the
	// memory system concurrently.
	burst := func(withNoise bool) sim.Time {
		m, c0, c1 := twoCoreEnv(t)
		if withNoise {
			// Core 1 floods DRAM with independent line reads.
			for i := 0; i < 2000; i++ {
				m.Ctl.DRAM.Access(false, uint64(0x100_0000+i*mem.LineSize), sim.Done{})
			}
			_ = c1
		}
		start := m.Eng.Now()
		const n = 64
		remaining := n
		done := false
		for i := 0; i < n; i++ {
			c0.Read(uint64(0x20000+i*4096), 8, func() {
				remaining--
				if remaining == 0 {
					done = true
				}
			})
		}
		m.Eng.RunWhile(func() bool { return !done })
		return m.Eng.Now() - start
	}
	quiet := burst(false)
	noisy := burst(true)
	if noisy <= quiet {
		t.Fatalf("no contention visible: quiet %d vs noisy %d", quiet, noisy)
	}
}

func TestPerCoreTLBsIndependent(t *testing.T) {
	m, c0, c1 := twoCoreEnv(t)
	done := false
	c0.Read(0x30000, 8, func() { done = true })
	m.Eng.RunWhile(func() bool { return !done })
	if c0.TLB.Lookup(0x30000) == nil {
		t.Fatal("core 0 TLB missing entry")
	}
	if c1.TLB.Lookup(0x30000) != nil {
		t.Fatal("core 1 TLB polluted by core 0's access")
	}
	// Context switch flushes only the switching core.
	as2 := vm.NewAddressSpace(m.DRAMFrames, m.NVMFrames)
	c1.SwitchContext(as2)
	if c0.TLB.Lookup(0x30000) == nil {
		t.Fatal("core 0 TLB flushed by core 1's switch")
	}
}
