package vm

import (
	"math/rand"
	"testing"
)

// linearTLB is the reference TLB: the slot array and linear scans the
// indexed TLB must reproduce exactly, placement quirks included. It
// orders slots by use stamps, which the indexed TLB's LRU list replaces.
type linearTLB struct {
	entries  []TLBEntry
	lru      []uint64
	lruClock uint64
}

func (t *linearTLB) Lookup(vaddr uint64) *TLBEntry {
	vpn := vaddr >> pageShift
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn {
			t.lruClock++
			t.lru[i] = t.lruClock
			return e
		}
	}
	return nil
}

func (t *linearTLB) Insert(vaddr, frame uint64, write, dirty bool) {
	vpn := vaddr >> pageShift
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid || e.VPN == vpn {
			victim = i
			break
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.lruClock++
	t.lru[victim] = t.lruClock
	t.entries[victim] = TLBEntry{VPN: vpn, Frame: frame, Write: write, Dirty: dirty, valid: true}
}

func (t *linearTLB) Invalidate(vaddr uint64) {
	vpn := vaddr >> pageShift
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].VPN == vpn {
			t.entries[i].valid = false
		}
	}
}

func (t *linearTLB) InvalidateRange(lo, hi uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if va := e.VPN << pageShift; e.valid && va >= lo && va < hi {
			e.valid = false
		}
	}
}

func (t *linearTLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// TestTLBMatchesLinearReference drives the indexed TLB and the linear
// reference with the same random operation streams and compares every
// slot (VPN, frame, flags, valid), the LRU list against the reference's
// use stamps, and each lookup's result after every operation.
// Pages come from a pool a little larger
// than the TLB, so hits, LRU evictions and invalid holes all occur; an
// invalidation followed by re-inserting a page cached at a later slot
// produces the duplicate-VPN case, which the test asserts it reached.
func TestTLBMatchesLinearReference(t *testing.T) {
	for _, size := range []int{4, 8, 64, 13} {
		rng := rand.New(rand.NewSource(int64(size)))
		got := NewTLB("tlb", size)
		want := &linearTLB{entries: make([]TLBEntry, size), lru: make([]uint64, size)}
		pages := uint64(size + size/2 + 2)
		dups := 0
		for step := 0; step < 20000; step++ {
			va := rng.Uint64()%pages<<pageShift | rng.Uint64()%4096
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "lookup"
				g, w := got.Lookup(va), want.Lookup(va)
				if (g == nil) != (w == nil) || g != nil && *g != *w {
					t.Fatalf("size %d step %d: Lookup(%#x) = %+v, want %+v", size, step, va, g, w)
				}
			case r < 85:
				op = "insert"
				frame := rng.Uint64() % 1024 << pageShift
				write, dirty := rng.Intn(2) == 0, rng.Intn(2) == 0
				got.Insert(va, frame, write, dirty)
				want.Insert(va, frame, write, dirty)
			case r < 95:
				op = "invalidate"
				got.Invalidate(va)
				want.Invalidate(va)
			case r < 98:
				op = "invalidate-range"
				lo := rng.Uint64() % pages << pageShift
				hi := lo + (rng.Uint64()%4+1)<<pageShift
				got.InvalidateRange(lo, hi)
				want.InvalidateRange(lo, hi)
			default:
				op = "flush"
				got.Flush()
				want.Flush()
			}
			valid := 0
			for i := range want.entries {
				if got.entries[i] != want.entries[i] {
					t.Fatalf("size %d step %d (%s): slot %d = %+v, want %+v", size, step, op, i, got.entries[i], want.entries[i])
				}
				if want.entries[i].valid {
					valid++
				}
			}
			// The list holds every valid slot, least recently used first.
			var last uint64
			for s := got.head; s >= 0; s = got.next[s] {
				if !got.entries[s].valid || want.lru[s] <= last {
					t.Fatalf("size %d step %d (%s): LRU list out of use order at slot %d", size, step, op, s)
				}
				last = want.lru[s]
				valid--
			}
			if valid != 0 {
				t.Fatalf("size %d step %d (%s): LRU list misses %d valid slots", size, step, op, valid)
			}
			if hasDuplicate(want.entries) {
				dups++
			}
		}
		if dups == 0 {
			t.Fatalf("size %d: no step held a duplicate VPN", size)
		}
	}
}

func hasDuplicate(entries []TLBEntry) bool {
	seen := map[uint64]bool{}
	for _, e := range entries {
		if e.valid {
			if seen[e.VPN] {
				return true
			}
			seen[e.VPN] = true
		}
	}
	return false
}

func TestTLBPathsDoNotAllocate(t *testing.T) {
	tlb := NewTLB("tlb", 64)
	for i := uint64(0); i < 64; i++ {
		tlb.Insert(i<<pageShift, i<<pageShift, true, true)
	}
	va := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		tlb.Lookup(va % (80 << pageShift))
		tlb.Insert(va%(80<<pageShift), 0, true, true)
		tlb.Invalidate(va % (80 << pageShift))
		tlb.InvalidateRange(va%(80<<pageShift), va%(80<<pageShift)+2<<pageShift)
		va += 7 << pageShift
	})
	tlb.Flush()
	if allocs != 0 {
		t.Fatalf("TLB paths allocated %.1f times per run", allocs)
	}
}

// BenchmarkTLBLookupHit measures a TLB hit on a full 64-entry TLB.
func BenchmarkTLBLookupHit(b *testing.B) {
	tlb := NewTLB("tlb", 64)
	for i := uint64(0); i < 64; i++ {
		tlb.Insert(i<<pageShift, i<<pageShift, true, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tlb.Lookup(uint64(i*37%64)<<pageShift) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkTLBInsertEvict measures a miss followed by an insert that
// evicts the LRU entry of a full 64-entry TLB.
func BenchmarkTLBInsertEvict(b *testing.B) {
	tlb := NewTLB("tlb", 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(i) << pageShift
		if tlb.Lookup(va) == nil {
			tlb.Insert(va, va, true, true)
		}
	}
}
