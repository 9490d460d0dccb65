package mem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"prosper/internal/sim"
)

func TestStorageReadWriteRoundTrip(t *testing.T) {
	s := NewStorage()
	data := []byte("hello hybrid memory")
	s.Write(0x1234, data)
	got := make([]byte, len(data))
	s.Read(0x1234, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestStorageCrossPageWrite(t *testing.T) {
	s := NewStorage()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100)
	s.Write(addr, data)
	got := make([]byte, len(data))
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestStorageZeroFill(t *testing.T) {
	s := NewStorage()
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = 0xff
	}
	s.Read(0xdeadbeef, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d not zero: %#x", i, b)
		}
	}
}

func TestStorageU64U32(t *testing.T) {
	s := NewStorage()
	s.WriteU64(0x100, 0x0123456789abcdef)
	if got := s.ReadU64(0x100); got != 0x0123456789abcdef {
		t.Fatalf("u64 = %#x", got)
	}
	if got := s.ReadU32(0x100); got != 0x89abcdef {
		t.Fatalf("little-endian low word = %#x", got)
	}
	s.WriteU32(0x104, 0xcafebabe)
	if got := s.ReadU64(0x100); got != 0xcafebabe89abcdef {
		t.Fatalf("mixed = %#x", got)
	}
}

func TestStorageCopy(t *testing.T) {
	s := NewStorage()
	src := []byte("checkpointed stack bytes")
	s.Write(0x5000, src)
	s.Copy(NVMBase+0x80, 0x5000, len(src))
	got := make([]byte, len(src))
	s.Read(NVMBase+0x80, got)
	if !bytes.Equal(got, src) {
		t.Fatal("copy mismatch")
	}
}

// TestStorageCopyMatchesMemmove copies random, often overlapping ranges
// across page boundaries and over unmaterialized pages, and compares the
// store with a flat reference copied through a temporary buffer: the
// bytes, and which pages are materialized.
func TestStorageCopyMatchesMemmove(t *testing.T) {
	const pages = 6
	rng := sim.NewRand(7)
	for trial := 0; trial < 400; trial++ {
		s := NewStorage()
		ref := make([]byte, pages*PageSize)
		backed := make([]bool, pages)
		for pg := 0; pg < pages; pg++ {
			if rng.Intn(3) == 0 {
				continue // leave the page unmaterialized
			}
			for i := 0; i < PageSize; i += 8 {
				ref[pg*PageSize+i] = byte(rng.Intn(255) + 1)
			}
			s.Write(uint64(pg*PageSize), ref[pg*PageSize:(pg+1)*PageSize])
			backed[pg] = true
		}
		n := rng.Intn(3 * PageSize)
		src := uint64(rng.Intn(len(ref) - n + 1))
		dst := uint64(rng.Intn(len(ref) - n + 1))
		switch trial % 4 { // force each overlap case
		case 1:
			dst = src + uint64(rng.Intn(64))
		case 2:
			dst = src - uint64(rng.Intn(64))
		}
		if dst > uint64(len(ref)-n) {
			dst = src
		}
		buf := make([]byte, n)
		copy(buf, ref[src:])
		copy(ref[dst:], buf)
		for a := dst; a < dst+uint64(n); a += PageSize - a%PageSize {
			backed[a/PageSize] = true
		}

		s.Copy(dst, src, n)
		got := make([]byte, len(ref))
		s.Read(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatalf("trial %d: Copy(%#x, %#x, %d) differs from memmove", trial, dst, src, n)
		}
		for pg, want := range backed {
			if s.Backed(uint64(pg*PageSize)) != want {
				t.Fatalf("trial %d: Copy(%#x, %#x, %d): page %d backed = %v, want %v",
					trial, dst, src, n, pg, !want, want)
			}
		}
	}
}

// TestStorageCopyDoesNotAllocate pins a page-crossing copy between
// materialized pages at zero allocations.
func TestStorageCopyDoesNotAllocate(t *testing.T) {
	s := NewStorage()
	s.Write(0, make([]byte, 4*PageSize))
	allocs := testing.AllocsPerRun(200, func() {
		s.Copy(2*PageSize+24, 40, PageSize+100)
		s.Copy(50, 30, PageSize) // overlapping, dst above src
	})
	if allocs != 0 {
		t.Fatalf("Storage.Copy allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestStoragePageMemoInvalidation: the page memo never serves a stale
// lookup. A read of an unmaterialized page is not memoized, so the page
// a later write creates is the one reads find, and pages sharing a memo
// slot read back their own contents.
func TestStoragePageMemoInvalidation(t *testing.T) {
	const addr = 0x3008
	s := NewStorage()
	s.ReadU64(addr) // a nil lookup must not be memoized
	if n := s.MaterializedPages(); n != 0 {
		t.Fatalf("a read materialized %d pages", n)
	}
	s.WriteU64(addr, 3)
	s.WriteU64(addr+PageSize, 5)
	if got, next := s.ReadU64(addr), s.ReadU64(addr+PageSize); got != 3 || next != 5 { // memoized
		t.Fatalf("read %d and %d, want 3 and 5", got, next)
	}
	alias := uint64(addr + memoSlots*PageSize) // same memo slot as addr
	if got := s.ReadU64(alias); got != 0 {
		t.Fatalf("an unwritten page aliasing a memoized one read %d", got)
	}
	s.WriteU64(alias, 4)
	if got, back := s.ReadU64(alias), s.ReadU64(addr); got != 4 || back != 3 {
		t.Fatalf("aliasing pages read %d and %d, want 4 and 3", got, back)
	}
}

// Property: any sequence of writes followed by reads behaves like a flat
// byte array (last writer wins).
func TestStorageMatchesFlatArrayProperty(t *testing.T) {
	const window = 1 << 16
	f := func(ops []struct {
		Addr uint32
		Val  byte
	}) bool {
		s := NewStorage()
		ref := make([]byte, window)
		for _, op := range ops {
			a := uint64(op.Addr % window)
			s.Write(a, []byte{op.Val})
			ref[a] = op.Val
		}
		got := make([]byte, window)
		s.Read(0, got)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutHelpers(t *testing.T) {
	if IsNVM(0) || !IsDRAM(0) {
		t.Fatal("address 0 should be DRAM")
	}
	if !IsNVM(NVMBase) || IsDRAM(NVMBase) {
		t.Fatal("NVMBase should be NVM")
	}
	if PageOf(0x1fff) != 0x1000 {
		t.Fatalf("PageOf = %#x", PageOf(0x1fff))
	}
	if LineOf(0x1c5) != 0x1c0 {
		t.Fatalf("LineOf = %#x", LineOf(0x1c5))
	}
	if n := LinesSpanned(0x3f, 2); n != 2 {
		t.Fatalf("LinesSpanned crossing = %d", n)
	}
	if n := LinesSpanned(0x40, 64); n != 1 {
		t.Fatalf("LinesSpanned aligned = %d", n)
	}
	if n := LinesSpanned(0, 0); n != 0 {
		t.Fatalf("LinesSpanned empty = %d", n)
	}
	if n := PagesSpanned(PageSize-1, 2); n != 2 {
		t.Fatalf("PagesSpanned crossing = %d", n)
	}
}

func TestDeviceLatencyOrdering(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	var readDone, writeDone sim.Time
	d.Access(false, 0x1000, sim.Thunk(sim.CompMem, func() { readDone = eng.Now() }))
	d.Access(true, NVMBase, sim.Thunk(sim.CompMem, func() { writeDone = eng.Now() }))
	eng.Run()
	if readDone < 135 {
		t.Fatalf("read completed too early: %d", readDone)
	}
	_ = writeDone
}

func TestNVMWriteSlowerThanDRAM(t *testing.T) {
	eng := sim.NewEngine()
	c := NewController(eng)
	var dramT, nvmT sim.Time
	c.Access(true, 0x1000, sim.Thunk(sim.CompMem, func() { dramT = eng.Now() }))
	c.Access(true, NVMBase+0x1000, sim.Thunk(sim.CompMem, func() { nvmT = eng.Now() }))
	eng.Run()
	if nvmT <= dramT*2 {
		t.Fatalf("NVM write (%d) should be much slower than DRAM write (%d)", nvmT, dramT)
	}
}

func TestDeviceBandwidthBacklog(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	const n = 1000
	var last sim.Time
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineSize
		d.Access(false, addr, sim.Thunk(sim.CompMem, func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		}))
	}
	eng.Run()
	// 1000 line reads at 10 cycles bus occupancy each cannot finish faster
	// than ~10k cycles; and bank parallelism must keep it well under the
	// fully serialized 135k cycles.
	if last < 9000 {
		t.Fatalf("bandwidth too high: finished at %d", last)
	}
	if last > 135*n {
		t.Fatalf("no parallelism: finished at %d", last)
	}
}

func TestNVMWriteBufferBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, PCMConfig())
	const n = 200 // far more than the 48-entry write buffer
	completed := 0
	for i := 0; i < n; i++ {
		d.Access(true, uint64(i)*LineSize, sim.Thunk(sim.CompMem, func() { completed++ }))
	}
	if got := d.Counters.Get("nvm.buffer_stalls"); got == 0 {
		t.Fatal("expected write-buffer stalls")
	}
	eng.Run()
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
}

func TestDeviceCounters(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	for i := 0; i < 5; i++ {
		d.Access(false, 0, sim.Done{})
	}
	for i := 0; i < 3; i++ {
		d.Access(true, 0, sim.Done{})
	}
	eng.Run()
	if d.Counters.Get("dram.reads") != 5 || d.Counters.Get("dram.writes") != 3 {
		t.Fatalf("counters: %v", d.Counters.Snapshot())
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(DRAMBase, 16*PageSize)
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if f%PageSize != 0 || seen[f] {
			t.Fatalf("bad frame %#x", f)
		}
		seen[f] = true
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("expected out-of-frames error")
	}
	if a.Allocated() != 16 {
		t.Fatalf("allocated = %d", a.Allocated())
	}
}

// TestNewDeviceRejectsBadBanks checks that a bank count that is not a
// power of two is refused by name, and that accepted counts pick a
// line's bank from its line number's low bits: the line Banks lines on
// waits for the first line's bank, the next line does not.
func TestNewDeviceRejectsBadBanks(t *testing.T) {
	for _, banks := range []int{3, 6, 12} {
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			NewDevice(sim.NewEngine(), DeviceConfig{Name: "odd", Banks: banks})
			return ""
		}()
		if !strings.Contains(msg, "odd") || !strings.Contains(msg, fmt.Sprintf("%d banks", banks)) {
			t.Fatalf("NewDevice with %d banks panicked with %q, want one naming the device and its bank count", banks, msg)
		}
	}
	for _, banks := range []int{0, 1, 2, 4, 16} {
		eng := sim.NewEngine()
		d := NewDevice(eng, DeviceConfig{Name: "pow2", Banks: banks, ReadLatency: 10, BankBusyRead: 100})
		n := max(banks, 1)
		finish := map[uint64]sim.Time{}
		lines := []uint64{0, uint64(n)}
		if n > 1 {
			lines = []uint64{0, 1, uint64(n)} // line 1 first: the bus is reserved in arrival order
		}
		for _, line := range lines {
			d.Access(false, line<<LineShift, sim.Thunk(sim.CompMem, func() { finish[line] = eng.Now() }))
		}
		eng.Run()
		if finish[uint64(n)] != 110 {
			t.Errorf("%d banks: line %d finished at %d, want 110 (after line 0's bank)", banks, n, finish[uint64(n)])
		}
		if n > 1 && finish[1] != 10 {
			t.Errorf("%d banks: line 1 finished at %d, want 10 (its own bank)", banks, finish[1])
		}
	}
}
