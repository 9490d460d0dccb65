package machine

import (
	"bytes"
	"fmt"
	"testing"

	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/vm"
)

// storeWarm maps and dirties the page under test, leaves its line in L1
// and returns with the store buffer drained: the state in which a store
// retires inline, without a continuation record.
func storeWarm(t *testing.T) (*Machine, *Core, *vm.AddressSpace) {
	t.Helper()
	m, core, as := testEnv(t)
	core.Write(addrUnderTest, []byte{1}, nil)
	m.Eng.Run()
	return m, core, as
}

// TestStoreWaitCauses drives one store through each way it can wait,
// and one that never waits, and pins when its done fires (from issue),
// the engine's last cycle (from issue), Fired, ScheduleSeq, the core's
// counters and the TLB's hits/misses; every credit must come back. The
// figures were recorded before stores that never wait began retiring
// inline: a change in where records begin must not move a simulated
// cycle, an event or a TLB lookup.
func TestStoreWaitCauses(t *testing.T) {
	const counters = "stores=2 walks=2 sb_stalls=0 hook_stalls=0 dirty_walks=0 faults=1"
	cases := []struct {
		name string
		addr uint64
		prep func(m *Machine, core *Core, as *vm.AddressSpace)
		want string
	}{
		{"never-waits", addrUnderTest + 8, nil,
			"done=0 end=3 fired=19 seq=19 " + counters + " tlb=1/2"},
		{"tlb-miss", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) { core.TLB.Invalidate(addrUnderTest) },
			"done=48 end=51 fired=23 seq=23 stores=2 walks=3 sb_stalls=0 hook_stalls=0 dirty_walks=0 faults=1 tlb=0/3"},
		{"dirty-set-walk", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) {
				as.PT.ClearFlagsRange(addrUnderTest, addrUnderTest+mem.PageSize, vm.FlagDirty)
				core.TLB.Flush()
				core.Read(addrUnderTest, 8, nil) // refill the TLB with a clean entry
				m.Eng.Run()
			},
			"done=48 end=51 fired=28 seq=28 stores=2 walks=4 sb_stalls=0 hook_stalls=0 dirty_walks=1 faults=1 tlb=1/3"},
		{"write-protect-fault", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) {
				as.PT.ClearFlagsRange(addrUnderTest, addrUnderTest+mem.PageSize, vm.FlagWrite)
				core.TLB.Flush()
				core.Read(addrUnderTest, 8, nil) // refill the TLB with a read-only entry
				m.Eng.Run()
			},
			"done=3048 end=3051 fired=29 seq=29 stores=2 walks=4 sb_stalls=0 hook_stalls=0 dirty_walks=0 faults=2 tlb=1/4"},
		{"demand-fault", addrUnderTest + 4*mem.PageSize, nil,
			"done=3096 end=3266 fired=31 seq=31 stores=2 walks=4 sb_stalls=0 hook_stalls=0 dirty_walks=0 faults=2 tlb=0/4"},
		{"hook-stall", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) {
				core.StoreHook = func(vaddr, paddr uint64, size int) sim.Time { return 37 }
			},
			"done=37 end=40 fired=20 seq=20 stores=2 walks=2 sb_stalls=0 hook_stalls=1 dirty_walks=0 faults=1 tlb=1/2"},
		{"store-buffer-full", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) {
				for i := 0; i < StoreBuffer; i++ { // take every credit; none returns before Run
					core.Write(addrUnderTest+uint64(i%8)*mem.LineSize, []byte{byte(i)}, nil)
				}
			},
			"done=3 end=230 fired=51 seq=51 stores=34 walks=2 sb_stalls=1 hook_stalls=0 dirty_walks=0 faults=1 tlb=33/2"},
		{"line-crossing", addrUnderTest + mem.LineSize - 4, nil,
			"done=0 end=170 fired=23 seq=23 " + counters + " tlb=2/2"},
		{"sampled-journey", addrUnderTest + 8,
			func(m *Machine, core *Core, as *vm.AddressSpace) {
				m.AttachJourneys(journey.NewRecorder("store", 1, 1))
			},
			"done=0 end=3 fired=19 seq=19 " + counters + " tlb=1/2 journey=3"},
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, core, as := storeWarm(t)
			if tc.prep != nil {
				tc.prep(m, core, as)
			}
			start := m.Eng.Now()
			done := sim.Time(-1)
			core.Write(tc.addr, payload, func() { done = m.Eng.Now() - start })
			m.Eng.Run()
			c := core.Counters.Get
			got := fmt.Sprintf("done=%d end=%d fired=%d seq=%d stores=%d walks=%d sb_stalls=%d hook_stalls=%d dirty_walks=%d faults=%d tlb=%d/%d",
				done, m.Eng.Now()-start, m.Eng.Fired(), m.Eng.ScheduleSeq(),
				c("core.stores"), c("core.page_walks"), c("core.store_buffer_stalls"),
				c("core.store_hook_stalls"), c("core.dirty_set_walks"), c("core.page_faults"),
				core.TLB.Counters.Get("core0.tlb.hits"), core.TLB.Counters.Get("core0.tlb.misses"))
			if js := core.journeys.Journeys(); len(js) > 0 {
				j := js[len(js)-1]
				if !j.Finished() {
					t.Fatal("sampled store's journey never finished")
				}
				got += fmt.Sprintf(" journey=%d", j.Latency())
			}
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
			if n := core.StoreBufferInUse(); n != 0 {
				t.Errorf("%d store-buffer credits never returned", n)
			}
			if b := loaded(m, as, tc.addr, len(payload)); !bytes.Equal(b, payload) {
				t.Fatalf("stored bytes = %v, want %v", b, payload)
			}
		})
	}
}

// TestAllocsStore pins the steady-state store path at zero heap
// allocations: a store that retires inline, and one that crosses a
// line and so takes its continuation records from the pools.
func TestAllocsStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"tlb-hit", addrUnderTest + 8},
		{"line-crossing", addrUnderTest + mem.LineSize - 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, core, _ := storeWarm(t)
			data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			done := func() {}
			allocs := testing.AllocsPerRun(200, func() {
				core.Write(tc.addr, data, done)
				m.Eng.Run()
			})
			if allocs != 0 {
				t.Fatalf("%s store allocates %.1f objects/op, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkStoreHit measures an 8-byte store that never waits: a TLB hit
// on a dirty page, a free store-buffer credit and an L1-hit write,
// streaming over the 64 lines of one warm page.
func BenchmarkStoreHit(b *testing.B) {
	m, core, _ := testEnv(nil)
	data := make([]byte, 8)
	for a := uint64(0); a < mem.PageSize; a += mem.LineSize {
		core.Write(addrUnderTest+a, data, nil)
	}
	m.Eng.Run()
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Write(addrUnderTest+uint64(i*8)%mem.PageSize, data, done)
		m.Eng.Run()
	}
}
