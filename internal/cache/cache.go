// Package cache implements the three-level write-back cache hierarchy of
// the simulated machine (Table II of the paper): per-core L1D and L2,
// a shared L3, LRU replacement, write-allocate, and a bounded number of
// MSHRs per level with miss coalescing.
//
// Caches are timing-only: they track tags and dirtiness, while data lives
// in mem.Storage. Every level implements Port, so levels chain naturally
// and the memory controller terminates the chain.
//
// Completion uses sim.Done tokens rather than func() closures, and each
// level's fetch/fill continuations are method values materialized once at
// construction, so the steady-state hit and miss paths allocate nothing.
// When the next level is another *Cache the chain is devirtualized: New
// detects the concrete type and calls it directly.
package cache

import (
	"fmt"
	"math/bits"

	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
)

// Port is anything that can service a line-granularity memory access.
// The zero Done token means "posted" — no completion callback.
type Port interface {
	Access(write bool, addr uint64, done sim.Done)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(write bool, addr uint64, done sim.Done)

// Access calls f.
func (f PortFunc) Access(write bool, addr uint64, done sim.Done) { f(write, addr, done) }

// Config describes one cache level.
type Config struct {
	Name    string
	Size    int      // capacity in bytes
	Ways    int      // associativity
	Latency sim.Time // hit latency in cycles
	MSHRs   int      // outstanding misses
}

// L1DConfig returns the paper's L1 data cache: 32 KiB, 8-way, 3 cycles,
// 16 MSHRs.
func L1DConfig() Config { return Config{Name: "l1d", Size: 32 << 10, Ways: 8, Latency: 3, MSHRs: 16} }

// L2Config returns the paper's L2: 512 KiB, 16-way, 12 cycles, 32 MSHRs.
func L2Config() Config { return Config{Name: "l2", Size: 512 << 10, Ways: 16, Latency: 12, MSHRs: 32} }

// L3Config returns the paper's shared L3 scaled by core count:
// 2 MiB/core, 16-way, 20 cycles, 32 MSHRs.
func L3Config(cores int) Config {
	if cores < 1 {
		cores = 1
	}
	return Config{Name: "l3", Size: cores * (2 << 20), Ways: 16, Latency: 20, MSHRs: 32}
}

// A tag word is a line number shifted left past two flag bits, so a
// 16-way set's tags fill one 64-byte host line.
const (
	tagValid uint32 = 1 << 0
	tagDirty uint32 = 1 << 1
	tagFlags        = tagValid | tagDirty
	tagShift        = 2

	// addrLimit is the first byte address a tag word cannot hold: 30 bits
	// of line number. Physical memory ends at 5 GiB, far below it.
	addrLimit uint64 = 1 << (32 - tagShift + mem.LineShift)
)

// tagOf returns the unflagged tag word of lineAddr, which must be below
// addrLimit.
func tagOf(lineAddr uint64) uint32 { return uint32(lineAddr>>mem.LineShift) << tagShift }

// addrOf returns the line address a tag word holds.
func addrOf(tag uint32) uint64 { return uint64(tag>>tagShift) << mem.LineShift }

// maxWays is the largest associativity a set's packed recency order
// holds: one 4-bit way number per nibble of a uint64.
const maxWays = 16

// nibbles has 1 in every nibble; identityOrder lists way k at recency k.
const (
	nibbles       uint64 = 0x1111111111111111
	identityOrder uint64 = 0xFEDCBA9876543210
)

// set is one cache set: its ways' tag words and replacement state in one
// record, so a lookup and the touch that follows it land on adjacent
// host lines. Way w's tag is tags[w]; only the low Ways entries are
// live. Nibble k of order is the way at recency k, 0 being the most
// recently used; only the low Ways nibbles are live, and they always
// hold each way exactly once. Bit w of valid is set iff way w holds a
// line, mirroring its tag's tagValid.
type set struct {
	tags  [maxWays]uint32
	order uint64
	valid uint32
}

// touch makes way w the set's most recently used: it finds w's nibble
// (the lowest zero nibble of order ^ w×nibbles) and shifts every more
// recent nibble up by one.
func (st *set) touch(w int) {
	x := st.order ^ uint64(w)*nibbles
	k := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<k - 1
	st.order = st.order&^(below<<4|0xF) | (st.order&below)<<4 | uint64(w)
}

// waiterSlots is how many waiters each MSHR holds before its list grows
// onto the heap.
const waiterSlots = 4

type mshr struct {
	waiters []waiter
	issued  sim.Time // when the line fetch left this level
	jid     uint32   // first sampled waiter's journey; tags the downstream fetch
}

type waiter struct {
	write   bool
	done    sim.Done
	arrived sim.Time // when this waiter joined the miss (journey spans)
}

type deferredAccess struct {
	write   bool
	addr    uint64
	done    sim.Done
	arrived sim.Time // when MSHR exhaustion parked the access (journey spans)
}

// Cache is one set-associative write-back, write-allocate level.
type Cache struct {
	eng  *sim.Engine
	cfg  Config
	next Port
	// nextCache devirtualizes the common chain (L1→L2→L3): when the next
	// level is a concrete *Cache, Access goes straight to it instead of
	// through the interface.
	nextCache *Cache

	// The sets, one record each. A tag word is tagOf the line address
	// with tagValid and tagDirty in its low bits; an invalid line keeps
	// its stale address. sets is nil until the level's first fill: a
	// machine booted only to recover a process never touches most
	// levels, so it need not allocate them.
	sets    []set
	setMask uint64

	// mshrs holds the in-flight misses, at most cfg.MSHRs of them;
	// mshrLines[i] is the line mshrs[i] fetches, searched linearly.
	mshrs     []*mshr
	mshrLines []uint64
	mshrFree  []*mshr          // idle MSHRs, reused with their waiter backing
	blocked   []deferredAccess // accesses stalled on MSHR exhaustion
	retryBuf  []deferredAccess // spare backing swapped with blocked on retry

	// fetchFn/fillFn are the miss-path continuations (method values bound
	// once here, rebound never): fetch asks the next level for the line
	// after the lookup latency; fill installs it on arrival.
	fetchFn func(uint64)
	fillFn  func(uint64)

	Counters   *stats.Counters
	Histograms *stats.Histograms

	// Precomputed counter handles: Access/access/miss run once per
	// memory reference, so composing "<name>.hits" there allocates on
	// every access. The handles pin each slot at construction instead.
	cHits          stats.Counter
	cMisses        stats.Counter
	cReadAccesses  stats.Counter
	cWriteAccesses stats.Counter
	cCoalesced     stats.Counter
	cMSHRStalls    stats.Counter
	cWritebacks    stats.Counter

	hMissLatency *stats.Histogram // line-fetch latency, issue to fill
	hMSHROcc     *stats.Histogram // MSHRs in use after each allocation

	// journeys, when attached, receives stage spans for sampled accesses
	// whose Done tokens carry a journey ID; stage is this level's lane.
	// Both are boot-time wiring (§15).
	journeys *journey.Recorder
	stage    journey.Stage
}

// New builds a cache level in front of next. It panics on a config it
// cannot run: associativity outside 1..maxWays, no MSHRs (every miss
// would wait forever), a negative latency, or a set count that is not a
// positive power of two.
func New(eng *sim.Engine, cfg Config, next Port) *Cache {
	switch {
	case cfg.Ways < 1 || cfg.Ways > maxWays:
		panic(fmt.Sprintf("cache: %s: %d ways, want 1..%d", cfg.Name, cfg.Ways, maxWays))
	case cfg.MSHRs < 1:
		panic(fmt.Sprintf("cache: %s: %d MSHRs, want at least 1", cfg.Name, cfg.MSHRs))
	case cfg.Latency < 0:
		panic(fmt.Sprintf("cache: %s: negative latency %d", cfg.Name, cfg.Latency))
	}
	numLines := cfg.Size / mem.LineSize
	numSets := numLines / cfg.Ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: %s: %d sets, want a positive power of two", cfg.Name, numSets))
	}
	c := &Cache{
		eng:        eng,
		cfg:        cfg,
		next:       next,
		setMask:    uint64(numSets - 1),
		mshrs:      make([]*mshr, 0, cfg.MSHRs),
		mshrLines:  make([]uint64, 0, cfg.MSHRs),
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
	}
	if nc, ok := next.(*Cache); ok {
		c.nextCache = nc
	}
	// The MSHRs and the first waiterSlots waiters of each live in two
	// contiguous arrays rather than one heap object per record.
	pool := make([]mshr, cfg.MSHRs)
	waiters := make([]waiter, cfg.MSHRs*waiterSlots)
	c.mshrFree = make([]*mshr, cfg.MSHRs)
	for i := range pool {
		pool[i].waiters = waiters[i*waiterSlots : i*waiterSlots : (i+1)*waiterSlots]
		c.mshrFree[cfg.MSHRs-1-i] = &pool[i]
	}
	c.fetchFn = c.fetch
	c.fillFn = c.fill
	c.cHits = c.Counters.Handle(cfg.Name + ".hits")
	c.cMisses = c.Counters.Handle(cfg.Name + ".misses")
	c.cReadAccesses = c.Counters.Handle(cfg.Name + ".read_accesses")
	c.cWriteAccesses = c.Counters.Handle(cfg.Name + ".write_accesses")
	c.cCoalesced = c.Counters.Handle(cfg.Name + ".mshr_coalesced")
	c.cMSHRStalls = c.Counters.Handle(cfg.Name + ".mshr_stalls")
	c.cWritebacks = c.Counters.Handle(cfg.Name + ".writebacks")
	c.hMissLatency = c.Histograms.New("miss_latency")
	c.hMSHROcc = c.Histograms.New("mshr_occupancy")
	return c
}

// allocSets allocates the level's sets, every one empty and in
// identity recency order.
func (c *Cache) allocSets() {
	c.sets = make([]set, c.setMask+1)
	for i := range c.sets {
		c.sets[i].order = identityOrder
	}
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// AttachJourneys wires the journey recorder into the level, declaring
// which stage lane (L1/L2/L3) its spans land in.
func (c *Cache) AttachJourneys(r *journey.Recorder, stage journey.Stage) {
	c.journeys = r
	c.stage = stage
}

// setFor returns the index of lineAddr's set.
func (c *Cache) setFor(lineAddr uint64) int {
	return int((lineAddr >> mem.LineShift) & c.setMask)
}

// lookup returns the way of set s holding lineAddr, or -1. Before the
// level's first fill there are no sets, and nothing is resident; the
// length test is the bounds check the set index needs anyway.
func (c *Cache) lookup(s int, lineAddr uint64) int {
	if uint(s) >= uint(len(c.sets)) {
		return -1
	}
	want := tagOf(lineAddr) | tagValid
	for w, tag := range c.sets[s].tags[:c.cfg.Ways] {
		if tag&^tagDirty == want {
			return w
		}
	}
	return -1
}

// inFlight returns the index of lineAddr's MSHR in mshrs, or -1.
func (c *Cache) inFlight(lineAddr uint64) int {
	for i, l := range c.mshrLines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// nextAccess forwards one access to the level below, devirtualized when
// that level is a concrete *Cache.
func (c *Cache) nextAccess(write bool, addr uint64, done sim.Done) {
	if c.nextCache != nil {
		c.nextCache.Access(write, addr, done)
		return
	}
	c.next.Access(write, addr, done)
}

// Access services one access to the line containing addr. The access is
// aligned internally; callers may pass arbitrary byte addresses below
// addrLimit, and any other address panics.
func (c *Cache) Access(write bool, addr uint64, done sim.Done) {
	if addr >= addrLimit {
		panic(fmt.Sprintf("cache: %s: address %#x is beyond the tag limit %#x", c.cfg.Name, addr, addrLimit))
	}
	if write {
		c.cWriteAccesses.Inc()
	} else {
		c.cReadAccesses.Inc()
	}
	c.access(write, mem.LineOf(addr), done)
}

// access is the internal (non-counting-of-entry) path, reused verbatim by
// MSHR-stall retries so that one logical access is accounted exactly once
// as a hit or a miss.
func (c *Cache) access(write bool, lineAddr uint64, done sim.Done) {
	s := c.setFor(lineAddr)
	if way := c.lookup(s, lineAddr); way >= 0 {
		c.cHits.Inc()
		st := &c.sets[s]
		st.touch(way)
		if write {
			st.tags[way] |= tagDirty
		}
		if jid := done.Journey(); jid != 0 {
			now := c.eng.Now()
			c.journeys.Span(jid, c.stage, journey.CauseHit, now, now+c.cfg.Latency)
		}
		if done.Valid() {
			c.eng.ScheduleDone(c.cfg.Latency, done)
		}
		return
	}
	c.miss(write, lineAddr, done)
}

func (c *Cache) miss(write bool, lineAddr uint64, done sim.Done) {
	if i := c.inFlight(lineAddr); i >= 0 {
		// Coalesce with the in-flight fetch of the same line.
		m := c.mshrs[i]
		c.cMisses.Inc()
		c.cCoalesced.Inc()
		m.waiters = append(m.waiters, waiter{write: write, done: done, arrived: c.eng.Now()})
		if m.jid == 0 {
			// A sampled coalescer adopts the fetch if the initiator was
			// unsampled, so the downstream levels still get tagged (the
			// fetch token reads m.jid when it departs, latency cycles on).
			m.jid = done.Journey()
		}
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		// Not yet a hit or a miss: the retry will classify it.
		c.cMSHRStalls.Inc()
		c.blocked = append(c.blocked, deferredAccess{write: write, addr: lineAddr, done: done, arrived: c.eng.Now()})
		return
	}
	c.cMisses.Inc()
	m := c.allocMSHR()
	m.waiters = append(m.waiters, waiter{write: write, done: done, arrived: c.eng.Now()})
	m.issued = c.eng.Now()
	m.jid = done.Journey()
	c.mshrs = append(c.mshrs, m)
	c.mshrLines = append(c.mshrLines, lineAddr)
	c.hMSHROcc.Observe(uint64(len(c.mshrs)))
	// Fetch the line from the level below after paying the lookup latency.
	c.eng.ScheduleDone(c.cfg.Latency, sim.Bind(sim.CompCache, c.fetchFn, lineAddr))
}

// fetch asks the next level for lineAddr; fill runs on its completion.
// The fill token carries the miss's journey ID so the levels below tag
// their spans against the same sampled access.
func (c *Cache) fetch(lineAddr uint64) {
	tok := sim.Bind(sim.CompCache, c.fillFn, lineAddr)
	if c.journeys != nil {
		if i := c.inFlight(lineAddr); i >= 0 && c.mshrs[i].jid != 0 {
			tok = tok.WithJourney(c.mshrs[i].jid)
		}
	}
	c.nextAccess(false, lineAddr, tok)
}

func (c *Cache) fill(lineAddr uint64) {
	i := c.inFlight(lineAddr)
	m := c.mshrs[i]
	last := len(c.mshrs) - 1
	c.mshrs[i], c.mshrLines[i] = c.mshrs[last], c.mshrLines[last]
	c.mshrs[last] = nil
	c.mshrs, c.mshrLines = c.mshrs[:last], c.mshrLines[:last]
	c.hMissLatency.Observe(uint64(c.eng.Now() - m.issued))

	if c.sets == nil {
		c.allocSets()
	}
	s := c.setFor(lineAddr)
	way := c.victimFor(s)
	st := &c.sets[s]
	if tag := st.tags[way]; tag&tagFlags == tagFlags {
		c.cWritebacks.Inc()
		// Posted writeback: lower level absorbs it asynchronously.
		c.nextAccess(true, addrOf(tag), sim.Done{})
	}
	st.tags[way] = tagOf(lineAddr) | tagValid
	st.valid |= 1 << way
	st.touch(way)
	now := c.eng.Now()
	for i := range m.waiters {
		w := m.waiters[i]
		if w.write {
			st.tags[way] |= tagDirty
		}
		if jid := w.done.Journey(); jid != 0 {
			// The level's whole share of the miss, waiter arrival to
			// fill; deeper levels' spans carve out their sub-intervals
			// in the attribution sweep.
			cause := journey.CauseMiss
			if i > 0 {
				cause = journey.CauseCoalesced
			}
			c.journeys.Span(jid, c.stage, cause, w.arrived, now)
		}
		w.done.Run()
	}
	// Retire the MSHR only after the waiter loop: callbacks above may
	// allocate MSHRs for new misses and must not be handed this one.
	c.freeMSHR(m)
	c.retryBlocked()
}

// allocMSHR takes an idle MSHR. The pool can run dry for a moment:
// fill releases a line's MSHR slot before its waiters run, and a waiter
// may start a new miss before the old record is back on the free list.
func (c *Cache) allocMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return &mshr{}
}

// freeMSHR returns m to the free list. Its stale waiters are not
// cleared: their tokens hold only method values the simulator keeps alive
// anyway, and the next miss overwrites them.
func (c *Cache) freeMSHR(m *mshr) {
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// victimFor returns the way a fill into set s replaces: the set's first
// invalid way, else its least recently used.
func (c *Cache) victimFor(s int) int {
	st := &c.sets[s]
	if st.valid != 1<<c.cfg.Ways-1 {
		return bits.TrailingZeros32(^st.valid)
	}
	return int(st.order>>(4*(c.cfg.Ways-1))) & 0xF
}

func (c *Cache) retryBlocked() {
	if len(c.blocked) == 0 {
		return
	}
	// Swap in the spare backing so retries re-deferred by still-full MSHRs
	// append to a distinct slice; the drained one becomes the next spare.
	pend := c.blocked
	c.blocked = c.retryBuf[:0]
	now := c.eng.Now()
	for i := range pend {
		p := pend[i]
		if jid := p.done.Journey(); jid != 0 {
			c.journeys.Span(jid, journey.StageMSHR, journey.CauseMSHRFull, p.arrived, now)
		}
		c.access(p.write, p.addr, p.done)
	}
	for i := range pend {
		pend[i] = deferredAccess{}
	}
	c.retryBuf = pend[:0]
}

// MSHRsInUse returns how many miss-status registers hold in-flight
// misses right now; telemetry samples it against cfg.MSHRs.
func (c *Cache) MSHRsInUse() int { return len(c.mshrs) }

// Contains reports whether the line holding addr is resident (test hook).
func (c *Cache) Contains(addr uint64) bool {
	line := mem.LineOf(addr)
	return line < addrLimit && c.lookup(c.setFor(line), line) >= 0
}

// Flush writes back every dirty line and invalidates the cache, e.g. to
// model cache loss at power failure or explicit clwb sweeps.
func (c *Cache) Flush() {
	for s := range c.sets {
		st := &c.sets[s]
		for w, tag := range st.tags[:c.cfg.Ways] {
			if tag&tagFlags == tagFlags {
				c.cWritebacks.Inc()
				c.nextAccess(true, addrOf(tag), sim.Done{})
			}
			st.tags[w] = tag &^ tagFlags
		}
		st.valid = 0
	}
}

// Hierarchy bundles the per-core L1/L2 front ends with a shared L3 over
// the memory controller.
type Hierarchy struct {
	L1D []*Cache // one per core
	L2  []*Cache // one per core
	L3  *Cache
}

// NewHierarchy builds the Table II cache stack for the given core count.
func NewHierarchy(eng *sim.Engine, cores int, memory Port) *Hierarchy {
	h := &Hierarchy{L3: New(eng, L3Config(cores), memory)}
	for i := 0; i < cores; i++ {
		l2 := New(eng, L2Config(), h.L3)
		l1 := New(eng, L1DConfig(), l2)
		h.L2 = append(h.L2, l2)
		h.L1D = append(h.L1D, l1)
	}
	return h
}

// CorePort returns the L1D port for the given core.
func (h *Hierarchy) CorePort(core int) *Cache { return h.L1D[core] }
