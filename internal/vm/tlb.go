package vm

import "prosper/internal/stats"

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
	lru   uint64
}

// TLB is a fully associative translation cache with LRU replacement.
type TLB struct {
	entries  []TLBEntry
	lruClock uint64
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
}

// NewTLB returns a TLB with the given number of entries. Counter keys
// are namespaced under the owner's name ("<name>.hits"), so per-core
// TLBs stay distinct in the stats dump, which prints them unprefixed.
func NewTLB(name string, size int) *TLB {
	t := &TLB{
		entries:    make([]TLBEntry, size),
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
	}
	t.cHits = t.Counters.Handle(name + ".hits")
	t.cMisses = t.Counters.Handle(name + ".misses")
	t.WalkLatency = t.Histograms.New("walk_latency")
	return t
}

// Lookup returns the entry caching vaddr's page, or nil on a miss.
func (t *TLB) Lookup(vaddr uint64) *TLBEntry {
	vpn := vaddr >> pageShift
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn {
			t.lruClock++
			e.lru = t.lruClock
			t.cHits.Inc()
			return e
		}
	}
	t.cMisses.Inc()
	return nil
}

// Insert fills an entry for vaddr's page, evicting LRU if needed.
func (t *TLB) Insert(vaddr, frame uint64, write, dirty bool) {
	vpn := vaddr >> pageShift
	victim := &t.entries[0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn {
			victim = e
			break
		}
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	t.lruClock++
	*victim = TLBEntry{VPN: vpn, Frame: frame, Write: write, Dirty: dirty, valid: true, lru: t.lruClock}
}

// Invalidate drops the entry for vaddr's page if cached.
func (t *TLB) Invalidate(vaddr uint64) {
	vpn := vaddr >> pageShift
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].VPN == vpn {
			t.entries[i].valid = false
		}
	}
}

// InvalidateRange drops all entries whose page lies in [lo, hi).
func (t *TLB) InvalidateRange(lo, hi uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		va := e.VPN << pageShift
		if va >= lo && va < hi {
			e.valid = false
		}
	}
}

// Flush empties the TLB (address-space switch).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}
