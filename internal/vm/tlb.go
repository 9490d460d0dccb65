package vm

import (
	"math/bits"

	"prosper/internal/stats"
)

// TLBEntry caches one translation, including whether the cached PTE had
// its dirty bit set when the entry was filled. A store through an entry
// with Dirty=false forces a hardware walk so the in-memory PTE's dirty
// bit can be set, exactly the mechanism the Dirtybit tracking baseline
// relies on.
type TLBEntry struct {
	VPN   uint64
	Frame uint64
	Write bool
	Dirty bool
	valid bool
}

// TLB is a fully associative translation cache with LRU replacement.
//
// The slots and the recency order of the valid ones are the
// architectural state. The order is kept
// as one record, an intrusive LRU list of the valid slots whose head is
// the victim, so a hit and a replacement are O(1). Two structures
// derived from the slots place entries exactly where a linear scan
// would:
//
//   - index, an open-addressed VPN→slot hash holding, for every cached
//     VPN, the lowest valid slot that caches it (what a scan would hit);
//   - free, a bitmap of invalid slots, whose lowest set bit is the first
//     invalid slot a scan would fill.
//
// Insert fills the first slot that is invalid or already holds the VPN,
// so a VPN cached behind an earlier invalid slot is cached twice; Lookup
// then hits the lower copy, and only the lower copy is indexed. The
// lower copy is always the most recently used of the two (it was filled
// later and only it is ever touched again), so LRU replacement evicts
// the upper copy first and the index never has to find it.
type TLB struct {
	entries  []TLBEntry
	Counters *stats.Counters

	// Histograms holds the TLB's distributions; WalkLatency aliases its
	// "walk_latency" member.
	Histograms *stats.Histograms
	// WalkLatency records the page-walk cycles paid on each TLB miss;
	// the owner (machine.Core) observes into it because the TLB itself
	// has no clock.
	WalkLatency *stats.Histogram

	cHits   stats.Counter
	cMisses stats.Counter

	index      []int32
	indexShift uint
	free       []uint64
	// The LRU list, least recently used first.
	next []int32
	head int32
	prev []int32
	tail int32
}

// NewTLB returns a TLB with the given number of entries. Counter keys
// are namespaced under the owner's name ("<name>.hits"), so per-core
// TLBs stay distinct in the stats dump, which prints them unprefixed.
func NewTLB(name string, size int) *TLB {
	// The index keeps its load factor at or below one quarter.
	shift := uint(64 - bits.Len(uint(4*max(size, 1)-1)))
	t := &TLB{
		entries:    make([]TLBEntry, size),
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
		index:      make([]int32, 1<<(64-shift)),
		indexShift: shift,
		free:       make([]uint64, (size+63)/64),
		prev:       make([]int32, size),
		next:       make([]int32, size),
	}
	t.cHits = t.Counters.Handle(name + ".hits")
	t.cMisses = t.Counters.Handle(name + ".misses")
	t.WalkLatency = t.Histograms.New("walk_latency")
	t.reset()
	return t
}

// Lookup returns the entry caching vaddr's page, or nil on a miss.
func (t *TLB) Lookup(vaddr uint64) *TLBEntry {
	s := t.find(vaddr >> pageShift)
	if s < 0 {
		t.cMisses.Inc()
		return nil
	}
	e := &t.entries[s]
	if int32(s) != t.tail {
		t.unlink(s)
		t.pushMRU(s)
	}
	t.cHits.Inc()
	return e
}

// Insert fills an entry for vaddr's page: the first slot that is invalid
// or already caches the page, else the LRU slot.
func (t *TLB) Insert(vaddr, frame uint64, write, dirty bool) {
	vpn := vaddr >> pageShift
	hit := t.find(vpn)
	victim := t.firstFree()
	switch {
	case hit >= 0 && (victim < 0 || hit < victim):
		victim = hit
		t.unlink(victim)
	case victim >= 0:
		// When the page is also cached at a later slot, this lower
		// copy takes over its index entry.
		t.setFree(victim, false)
		t.index[t.probe(vpn)] = int32(victim) + 1
	default:
		victim = int(t.head)
		t.unlink(victim)
		t.indexDrop(victim)
		t.index[t.probe(vpn)] = int32(victim) + 1
	}
	t.entries[victim] = TLBEntry{VPN: vpn, Frame: frame, Write: write, Dirty: dirty, valid: true}
	t.pushMRU(victim)
}

// Invalidate drops every entry for vaddr's page.
func (t *TLB) Invalidate(vaddr uint64) {
	vpn := vaddr >> pageShift
	if t.find(vpn) < 0 {
		return
	}
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].VPN == vpn {
			t.drop(i)
		}
	}
}

// InvalidateRange drops all entries whose page lies in [lo, hi).
func (t *TLB) InvalidateRange(lo, hi uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if va := e.VPN << pageShift; e.valid && va >= lo && va < hi {
			t.drop(i)
		}
	}
}

// drop invalidates one valid slot in place. Every copy of a page goes
// at once, so the index never has to point at a surviving upper copy.
func (t *TLB) drop(slot int) {
	t.indexDrop(slot)
	t.unlink(slot)
	t.setFree(slot, true)
	t.entries[slot].valid = false
}

// Flush empties the TLB (address-space switch).
func (t *TLB) Flush() { t.reset() }

// hash maps a VPN to its home bucket in the index (Fibonacci hashing).
func (t *TLB) hash(vpn uint64) int {
	return int((vpn * 0x9e3779b97f4a7c15) >> t.indexShift)
}

// probe returns the index bucket holding vpn, or the empty bucket where
// it would go.
func (t *TLB) probe(vpn uint64) int {
	mask := len(t.index) - 1
	h := t.hash(vpn)
	for {
		s := t.index[h]
		if s == 0 || t.entries[s-1].VPN == vpn {
			return h
		}
		h = (h + 1) & mask
	}
}

// find returns the lowest valid slot caching vpn, or -1.
func (t *TLB) find(vpn uint64) int {
	return int(t.index[t.probe(vpn)]) - 1
}

// indexDrop removes a slot's page from the index ahead of the slot's
// replacement or invalidation. An upper copy is not indexed; a lower copy
// is never the LRU slot while an upper one is valid (see TLB), and
// invalidations drop both copies.
func (t *TLB) indexDrop(slot int) {
	h := t.probe(t.entries[slot].VPN)
	if int(t.index[h])-1 != slot {
		return
	}
	// Backward-shift deletion keeps every probe chain gap-free.
	mask := len(t.index) - 1
	for j := (h + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.hash(t.entries[t.index[j]-1].VPN)
		// Move j's entry into the hole h unless its home lies
		// cyclically in (h, j].
		if (j-home)&mask >= (j-h)&mask {
			t.index[h] = t.index[j]
			h = j
		}
	}
	t.index[h] = 0
}

func (t *TLB) firstFree() int {
	for w, word := range t.free {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (t *TLB) setFree(slot int, free bool) {
	if free {
		t.free[slot/64] |= 1 << (slot % 64)
	} else {
		t.free[slot/64] &^= 1 << (slot % 64)
	}
}

func (t *TLB) unlink(s int) {
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *TLB) pushMRU(s int) {
	t.prev[s], t.next[s] = t.tail, -1
	if t.tail >= 0 {
		t.next[t.tail] = int32(s)
	} else {
		t.head = int32(s)
	}
	t.tail = int32(s)
}

// reset invalidates every slot: it empties the index, marks every slot
// free and empties the LRU list. It allocates nothing.
func (t *TLB) reset() {
	clear(t.index)
	clear(t.free)
	t.head, t.tail = -1, -1
	for i := range t.entries {
		t.entries[i].valid = false
		t.prev[i] = -1
		t.setFree(i, true)
	}
}
