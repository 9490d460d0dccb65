package vm

import (
	"testing"
	"testing/quick"

	"prosper/internal/mem"
)

func testAllocators() (*mem.FrameAllocator, *mem.FrameAllocator) {
	return mem.NewFrameAllocator(mem.DRAMBase, 64<<20),
		mem.NewFrameAllocator(mem.NVMBase, 64<<20)
}

func testPT() *PageTable {
	dram, _ := testAllocators()
	return NewPageTable(func() uint64 {
		f, err := dram.Alloc()
		if err != nil {
			panic(err)
		}
		return f
	})
}

func TestPageTableMapTranslate(t *testing.T) {
	pt := testPT()
	pt.Map(0x7fff_0000_1000, 0x20_3000, FlagWrite|FlagUser)
	paddr, pte, ok := pt.Translate(0x7fff_0000_1abc)
	if !ok {
		t.Fatal("translation missing")
	}
	if paddr != 0x20_3abc {
		t.Fatalf("paddr = %#x", paddr)
	}
	if !pte.Writable() || pte.Dirty() {
		t.Fatalf("flags = %#x", pte.Flags)
	}
	if _, _, ok := pt.Translate(0x7fff_0000_2000); ok {
		t.Fatal("unmapped page translated")
	}
}

func TestPageTableUnmap(t *testing.T) {
	pt := testPT()
	pt.Map(0x1000, 0x9000, FlagWrite)
	if pt.Mapped() != 1 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	frame, ok := pt.Unmap(0x1000)
	if !ok || frame != 0x9000 {
		t.Fatalf("unmap = %#x, %v", frame, ok)
	}
	if pt.Mapped() != 0 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	if _, ok := pt.Unmap(0x1000); ok {
		t.Fatal("double unmap succeeded")
	}
}

func TestPageTableRemapKeepsCount(t *testing.T) {
	pt := testPT()
	pt.Map(0x1000, 0x9000, 0)
	pt.Map(0x1000, 0xa000, 0)
	if pt.Mapped() != 1 {
		t.Fatalf("mapped = %d after remap", pt.Mapped())
	}
	paddr, _, _ := pt.Translate(0x1010)
	if paddr != 0xa010 {
		t.Fatalf("remap not applied: %#x", paddr)
	}
}

func TestWalkDepth(t *testing.T) {
	pt := testPT()
	var addrs [levels]uint64
	if n, leaf := pt.Walk(0x5000, &addrs); n != 1 || leaf != nil {
		t.Fatalf("unmapped walk depth = %d, leaf %v, want 1 (root only), nil", n, leaf)
	}
	pt.Map(0x5000, 0x8000, 0)
	n, leaf := pt.Walk(0x5000, &addrs)
	if n != 4 {
		t.Fatalf("mapped walk depth = %d, want 4", n)
	}
	if leaf != pt.Lookup(0x5000) {
		t.Fatal("walk leaf is not the PTE Lookup returns")
	}
	seen := map[uint64]bool{}
	for _, a := range addrs[:n] {
		if seen[mem.PageOf(a)] {
			t.Fatal("two walk levels share a table page")
		}
		seen[mem.PageOf(a)] = true
	}
	// A leaf table without the entry: the walk still reaches the (empty)
	// leaf, and Unmap zeroes that same entry in place.
	if n, leaf := pt.Walk(0x6000, &addrs); n != 4 || leaf == nil || leaf.Present() {
		t.Fatalf("walk to an unmapped page of a mapped leaf table = %d, %v; want 4, a non-present leaf", n, leaf)
	}
	pt.Unmap(0x5000)
	if leaf.Present() || leaf != pt.Lookup(0x5000) {
		t.Fatal("Unmap did not clear the walked leaf in place")
	}
}

func TestVisitRange(t *testing.T) {
	pt := testPT()
	for i := uint64(0); i < 10; i++ {
		pt.Map(0x10000+i*mem.PageSize, 0x100000+i*mem.PageSize, FlagWrite)
	}
	var visited []uint64
	pt.VisitRange(0x10000+2*mem.PageSize, 0x10000+7*mem.PageSize, func(va uint64, _ *PTE) {
		visited = append(visited, va)
	})
	if len(visited) != 5 {
		t.Fatalf("visited %d pages, want 5", len(visited))
	}
	for i, va := range visited {
		want := 0x10000 + uint64(i+2)*mem.PageSize
		if va != want {
			t.Fatalf("visit order: got %#x want %#x", va, want)
		}
	}
}

func TestVisitRangeSparse(t *testing.T) {
	pt := testPT()
	// Two mappings gigabytes apart: visiting must skip absent subtrees.
	pt.Map(0x1000, 0x8000, 0)
	pt.Map(0x40_0000_0000, 0x9000, 0)
	count := 0
	pt.VisitRange(0, MaxVirtual, func(uint64, *PTE) { count++ })
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestClearFlagsRange(t *testing.T) {
	pt := testPT()
	for i := uint64(0); i < 4; i++ {
		pt.Map(i*mem.PageSize, 0x10000+i*mem.PageSize, FlagWrite|FlagDirty)
	}
	n := pt.ClearFlagsRange(0, 2*mem.PageSize, FlagDirty)
	if n != 2 {
		t.Fatalf("cleared %d, want 2", n)
	}
	if pt.Lookup(0).Dirty() || pt.Lookup(mem.PageSize).Dirty() {
		t.Fatal("dirty bit survived clear")
	}
	if !pt.Lookup(2 * mem.PageSize).Dirty() {
		t.Fatal("dirty bit cleared outside range")
	}
}

func TestNonCanonicalPanics(t *testing.T) {
	pt := testPT()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pt.Map(MaxVirtual, 0, 0)
}

// Property: for arbitrary map sets, Translate(va) returns frame|offset for
// every mapped page and fails for unmapped pages.
func TestTranslateProperty(t *testing.T) {
	f := func(pages []uint32) bool {
		pt := testPT()
		want := map[uint64]uint64{}
		for i, p := range pages {
			va := uint64(p) << pageShift
			frame := uint64(0x100000 + i*mem.PageSize)
			pt.Map(va, frame, FlagWrite)
			want[va] = frame
		}
		for va, frame := range want {
			paddr, _, ok := pt.Translate(va + 0x123)
			if !ok || paddr != frame+0x123 {
				return false
			}
		}
		return pt.Mapped() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tlb := NewTLB("tlb", 2)
	if tlb.Lookup(0x1000) != nil {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x1000, 0xa000, true, false)
	tlb.Insert(0x2000, 0xb000, true, false)
	if e := tlb.Lookup(0x1234); e == nil || e.Frame != 0xa000 {
		t.Fatal("TLB miss after insert")
	}
	// 0x2000 is now LRU; inserting a third entry must evict it.
	tlb.Insert(0x3000, 0xc000, false, false)
	if tlb.Lookup(0x2000) != nil {
		t.Fatal("LRU entry survived")
	}
	if tlb.Lookup(0x1000) == nil {
		t.Fatal("MRU entry evicted")
	}
	if tlb.Counters.Get("tlb.hits") == 0 || tlb.Counters.Get("tlb.misses") == 0 {
		t.Fatal("counters not maintained")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB("tlb", 8)
	tlb.Insert(0x1000, 0xa000, true, true)
	tlb.Insert(0x2000, 0xb000, true, true)
	tlb.Invalidate(0x1000)
	if tlb.Lookup(0x1000) != nil {
		t.Fatal("invalidated entry still present")
	}
	tlb.InvalidateRange(0, MaxVirtual)
	if tlb.Lookup(0x2000) != nil {
		t.Fatal("range invalidate missed entry")
	}
}

func TestTLBInsertSamePageReplaces(t *testing.T) {
	tlb := NewTLB("tlb", 4)
	tlb.Insert(0x1000, 0xa000, true, false)
	tlb.Insert(0x1000, 0xa000, true, true)
	e := tlb.Lookup(0x1000)
	if e == nil || !e.Dirty {
		t.Fatal("re-insert did not update dirty state")
	}
	// Must occupy a single slot.
	tlb.Insert(0x2000, 0, false, false)
	tlb.Insert(0x3000, 0, false, false)
	tlb.Insert(0x4000, 0, false, false)
	if tlb.Lookup(0x1000) == nil {
		t.Fatal("duplicate insert consumed extra slots")
	}
}

func newTestSpace() *AddressSpace {
	dram, nvm := testAllocators()
	return NewAddressSpace(dram, nvm)
}

func TestAddressSpaceDemandPaging(t *testing.T) {
	as := newTestSpace()
	if err := as.AddVMA(&VMA{Lo: 0x10000, Hi: 0x20000, Kind: KindHeap, Writable: true, ThreadID: -1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := as.PT.Translate(0x10000); ok {
		t.Fatal("page mapped before fault")
	}
	kind, err := as.HandleFault(0x10abc, true)
	if err != nil || kind != "demand" {
		t.Fatalf("fault: %v %v", kind, err)
	}
	paddr, pte, ok := as.PT.Translate(0x10abc)
	if !ok || !mem.IsDRAM(paddr) {
		t.Fatalf("translate after fault: %#x %v", paddr, ok)
	}
	if !pte.Dirty() {
		t.Fatal("write fault must set dirty")
	}
	if as.DemandFaults() != 1 {
		t.Fatalf("demandFaults = %d", as.DemandFaults())
	}
}

func TestAddressSpaceNVMPlacement(t *testing.T) {
	as := newTestSpace()
	if err := as.AddVMA(&VMA{Lo: 0x30000, Hi: 0x40000, Kind: KindHeap, Writable: true, InNVM: true, ThreadID: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.HandleFault(0x30000, true); err != nil {
		t.Fatal(err)
	}
	paddr, _, _ := as.PT.Translate(0x30000)
	if !mem.IsNVM(paddr) {
		t.Fatalf("NVM VMA got DRAM frame %#x", paddr)
	}
}

func TestStackGrowth(t *testing.T) {
	as := newTestSpace()
	stack := &VMA{Lo: 0x7000_0000, Hi: 0x7001_0000, Kind: KindStack, Writable: true, GrowsDown: true, ThreadID: 0}
	if err := as.AddVMA(stack); err != nil {
		t.Fatal(err)
	}
	kind, err := as.HandleFault(0x7000_0000-100, true)
	if err != nil || kind != "grow" {
		t.Fatalf("growth fault: %v %v", kind, err)
	}
	if stack.Lo != mem.PageOf(0x7000_0000-100) {
		t.Fatalf("stack did not grow: lo=%#x", stack.Lo)
	}
	// Far below the (moved) guard window: segfault.
	if _, err := as.HandleFault(stack.Lo-guardWindow-mem.PageSize, true); err == nil {
		t.Fatal("runaway access below guard window should fault")
	}
}

func TestWritePermissionFault(t *testing.T) {
	as := newTestSpace()
	if err := as.AddVMA(&VMA{Lo: 0x10000, Hi: 0x20000, Kind: KindHeap, Writable: true, ThreadID: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.HandleFault(0x10000, false); err != nil {
		t.Fatal(err)
	}
	// Tracking removes write permission; next store faults and restores it.
	as.PT.ClearFlagsRange(0x10000, 0x20000, FlagWrite|FlagDirty)
	var hooked uint64
	as.FaultHook = func(vaddr uint64, write bool, _ *VMA) { hooked = vaddr }
	kind, err := as.HandleFault(0x10040, true)
	if err != nil || kind != "wperm" {
		t.Fatalf("wperm fault: %v %v", kind, err)
	}
	pte := as.PT.Lookup(0x10000)
	if !pte.Writable() || !pte.Dirty() {
		t.Fatal("wperm fault must restore write and set dirty")
	}
	if hooked != 0x10040 {
		t.Fatal("fault hook not invoked")
	}
	if as.WriteFaults() != 1 {
		t.Fatalf("writeFaults = %d", as.WriteFaults())
	}
}

func TestSegfaultOutsideVMAs(t *testing.T) {
	as := newTestSpace()
	if _, err := as.HandleFault(0xdead000, false); err == nil {
		t.Fatal("expected segfault")
	}
}

func TestVMAOverlapRejected(t *testing.T) {
	as := newTestSpace()
	if err := as.AddVMA(&VMA{Lo: 0x10000, Hi: 0x20000, Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddVMA(&VMA{Lo: 0x18000, Hi: 0x28000, Writable: true}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := as.AddVMA(&VMA{Lo: 0x1001, Hi: 0x2000}); err == nil {
		t.Fatal("unaligned VMA accepted")
	}
}

func TestEnsureRange(t *testing.T) {
	dram, nvm := testAllocators()
	as := NewAddressSpace(dram, nvm)
	if err := as.AddVMA(&VMA{Lo: 0x50000, Hi: 0x58000, Kind: KindBitmap, Writable: true, ThreadID: -1}); err != nil {
		t.Fatal(err)
	}
	as.EnsureRange(0x50000, 0x58000)
	if as.PT.Mapped() != 8 {
		t.Fatalf("mapped = %d, want 8", as.PT.Mapped())
	}
	// Idempotent.
	as.EnsureRange(0x50000, 0x58000)
	if as.PT.Mapped() != 8 {
		t.Fatal("EnsureRange not idempotent")
	}
}

// Property: dirty bits after a fault sequence exactly reflect which pages
// saw a write fault (demand or wperm).
func TestDirtyBitProperty(t *testing.T) {
	f := func(ops []struct {
		Page  uint8
		Write bool
	}) bool {
		as := newTestSpace()
		if err := as.AddVMA(&VMA{Lo: 0, Hi: 256 * mem.PageSize, Kind: KindHeap, Writable: true, ThreadID: -1}); err != nil {
			return false
		}
		written := map[uint64]bool{}
		for _, op := range ops {
			va := uint64(op.Page) * mem.PageSize
			pte := as.PT.Lookup(va)
			if pte == nil || !pte.Present() {
				if _, err := as.HandleFault(va, op.Write); err != nil {
					return false
				}
			} else if op.Write {
				pte.Flags |= FlagDirty // page-walker dirty update
			}
			if op.Write {
				written[va] = true
			}
		}
		okAll := true
		as.PT.VisitRange(0, 256*mem.PageSize, func(va uint64, pte *PTE) {
			if pte.Dirty() != written[va] {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
