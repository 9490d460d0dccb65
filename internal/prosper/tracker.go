// Package prosper implements the paper's primary contribution: a per-core
// hardware dirty tracker that observes the store stream at the L1D port,
// filters stores-of-interest (SOIs) against an OS-configured virtual
// stack range, and records modified sub-page granules in a DRAM bitmap
// through a small coalescing lookup table.
//
// The tracker is configured through model-specific registers (MSRs) by
// the OS component (internal/kernel): stack address range, tracking
// granularity, and bitmap base. At checkpoint end the OS requests a
// flush, polls for quiescence via the tracker's outstanding-request
// counters, inspects and clears the bitmap, and copies the dirty granules
// to NVM.
package prosper

import (
	"fmt"
	"math/bits"

	"prosper/internal/cache"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
)

// AllocPolicy selects how the lookup table creates entries for bitmap
// words it has not cached (Section III-B of the paper).
type AllocPolicy int

const (
	// AccumulateApply (the paper's choice) allocates an empty entry
	// immediately; the old bitmap word is loaded only when the entry is
	// written back, then merged and stored if changed.
	AccumulateApply AllocPolicy = iota
	// LoadUpdate loads the old word at allocation so the entry always
	// holds the current value; writebacks need no load.
	LoadUpdate
)

func (p AllocPolicy) String() string {
	if p == LoadUpdate {
		return "load-update"
	}
	return "accumulate-apply"
}

// Config sets the microarchitectural parameters. The defaults (applied by
// New for zero fields) are the paper's: 16 entries, HWM 24, LWM 8.
type Config struct {
	TableSize int
	HWM       int // high-water-mark: writeback when popcount reaches it
	LWM       int // low-water-mark: eviction prefers entries below it
	Policy    AllocPolicy
	Seed      uint64 // seeds the random-victim fallback
}

func (c Config) withDefaults() Config {
	if c.TableSize <= 0 {
		c.TableSize = 16
	}
	if c.HWM <= 0 {
		c.HWM = 24
	}
	if c.LWM <= 0 {
		c.LWM = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MSRs is the OS-visible register state of one tracker, saved and
// restored across context switches along with the touched-range state.
type MSRs struct {
	StackLo    uint64 // tracked virtual range [StackLo, StackHi)
	StackHi    uint64
	BitmapBase uint64 // physical DRAM base of the dirty bitmap
	Gran       uint64 // tracking granularity, multiple of 8 bytes
	Enabled    bool
}

// State is the full architectural state of a tracker for save/restore.
// The lookup table itself is not part of it: the OS must flush before
// saving, which the kernel's context-switch path does.
type State struct {
	MSRs       MSRs
	TouchedLo  uint64
	TouchedHi  uint64
	AnyTouched bool
}

// noWord marks an unused lookup-table slot. Bitmap words are 4-byte
// aligned, so no word address equals it.
const noWord = ^uint64(0)

// Tracker is one per-core dirty tracker.
type Tracker struct {
	eng     *sim.Engine
	port    cache.Port   // where bitmap loads/stores are injected (below L1D)
	storage *mem.Storage // functional home of the bitmap
	cfg     Config
	rng     *sim.Rand

	msrs MSRs
	// The lookup table, one slot per index: words holds each slot's
	// bitmap word address (noWord when unused) as one packed array the
	// per-store search scans, and accum its bits accumulated
	// (AccumulateApply) or merged value (LoadUpdate).
	words []uint64
	accum []uint32

	outstandingLoads  int
	outstandingStores int

	// loadDoneTok/storeDoneTok retire one outstanding bitmap access; the
	// method values are bound once in New so the injection path allocates
	// nothing per access.
	loadDoneTok  sim.Done
	storeDoneTok sim.Done

	touchedLo, touchedHi uint64
	anyTouched           bool

	Counters   *stats.Counters
	Histograms *stats.Histograms

	// Precomputed handles for the per-store hot path. The lazy ones
	// register on first use, so Counters keeps the order the string-keyed
	// Inc calls gave it.
	cSOIs         stats.Counter
	cBitmapLoads  stats.Counter
	cBitmapStores stats.Counter

	cHWMWritebacks, cEvictions      stats.LazyCounter
	cLWMEvictions, cRandomEvictions stats.LazyCounter
	cFlushes                        stats.LazyCounter

	hFlushEntries *stats.Histogram // live table entries at each Flush
	hFlushWait    *stats.Histogram // FlushAndWait call to quiescence, cycles

	// Trace, when enabled, receives flush / HWM-writeback / eviction
	// instant events on TraceTrack; the kernel wires both at boot. A nil
	// Trace (the default) costs one pointer test per emission site.
	Trace      *telemetry.Tracer
	TraceTrack telemetry.Track
}

// New builds a tracker injecting bitmap traffic into port.
func New(eng *sim.Engine, port cache.Port, storage *mem.Storage, cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		eng:        eng,
		port:       port,
		storage:    storage,
		cfg:        cfg,
		rng:        sim.NewRand(cfg.Seed),
		words:      make([]uint64, cfg.TableSize),
		accum:      make([]uint32, cfg.TableSize),
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
	}
	for i := range t.words {
		t.words[i] = noWord
	}
	t.loadDoneTok = sim.Thunk(sim.CompProsper, t.loadRetired)
	t.storeDoneTok = sim.Thunk(sim.CompProsper, t.storeRetired)
	t.cSOIs = t.Counters.Handle("prosper.sois")
	t.cBitmapLoads = t.Counters.Handle("prosper.bitmap_loads")
	t.cBitmapStores = t.Counters.Handle("prosper.bitmap_stores")
	t.cHWMWritebacks = t.Counters.Lazy("prosper.hwm_writebacks")
	t.cEvictions = t.Counters.Lazy("prosper.evictions")
	t.cLWMEvictions = t.Counters.Lazy("prosper.lwm_evictions")
	t.cRandomEvictions = t.Counters.Lazy("prosper.random_evictions")
	t.cFlushes = t.Counters.Lazy("prosper.flushes")
	t.hFlushEntries = t.Histograms.New("flush_entries")
	t.hFlushWait = t.Histograms.New("flush_wait")
	return t
}

// Configure writes the tracker's MSRs. Granularity must be a positive
// multiple of 8 bytes.
func (t *Tracker) Configure(stackLo, stackHi, bitmapBase, gran uint64) {
	if gran == 0 || gran%8 != 0 {
		panic(fmt.Sprintf("prosper: granularity %d not a multiple of 8", gran))
	}
	if stackLo >= stackHi {
		panic("prosper: empty stack range")
	}
	t.msrs = MSRs{StackLo: stackLo, StackHi: stackHi, BitmapBase: bitmapBase, Gran: gran}
}

// Enable starts SOI filtering; Disable stops it (tracking interval gate).
func (t *Tracker) Enable() { t.msrs.Enabled = true }

// Disable stops SOI filtering without touching the table.
func (t *Tracker) Disable() { t.msrs.Enabled = false }

// MSRState returns the current MSR values (RDMSR).
func (t *Tracker) MSRState() MSRs { return t.msrs }

// SetGranularity reprograms the granularity MSR in place. The OS may only
// do this at an interval boundary with the bitmap clear; the adaptive
// granularity extension uses it.
func (t *Tracker) SetGranularity(gran uint64) {
	if gran == 0 || gran%8 != 0 {
		panic("prosper: bad granularity")
	}
	t.msrs.Gran = gran
}

// BitmapBytes returns the bitmap size in bytes needed to track the
// configured range at the configured granularity, rounded to whole
// 32-bit words.
func BitmapBytes(rangeBytes, gran uint64) uint64 {
	granules := (rangeBytes + gran - 1) / gran
	words := (granules + 31) / 32
	return words * 4
}

// ObserveStore implements machine.StoreObserver: it filters the store
// against the MSR range and records touched granules. It never stalls
// the store itself — all memory traffic it generates is asynchronous.
func (t *Tracker) ObserveStore(vaddr uint64, size int) {
	if !t.msrs.Enabled || size <= 0 {
		return
	}
	if vaddr >= t.msrs.StackHi || vaddr+uint64(size) <= t.msrs.StackLo {
		return
	}
	t.cSOIs.Inc()
	lo, hi := vaddr, vaddr+uint64(size)
	if lo < t.msrs.StackLo {
		lo = t.msrs.StackLo
	}
	if hi > t.msrs.StackHi {
		hi = t.msrs.StackHi
	}
	if !t.anyTouched || lo < t.touchedLo {
		t.touchedLo = lo
	}
	if !t.anyTouched || hi > t.touchedHi {
		t.touchedHi = hi
	}
	t.anyTouched = true

	firstGranule := (lo - t.msrs.StackLo) / t.msrs.Gran
	lastGranule := (hi - 1 - t.msrs.StackLo) / t.msrs.Gran
	for g := firstGranule; g <= lastGranule; g++ {
		t.recordGranule(g)
	}
}

func (t *Tracker) recordGranule(g uint64) {
	wordAddr := t.msrs.BitmapBase + (g/32)*4
	bit := uint32(1) << (g % 32)
	if i := t.find(wordAddr); i >= 0 {
		t.accum[i] |= bit
		if t.popcount(i) >= t.cfg.HWM {
			t.cHWMWritebacks.Inc()
			if t.Trace.Enabled() {
				t.Trace.Instant(t.TraceTrack, "hwm_writeback", telemetry.I("bits", int64(t.popcount(i))))
			}
			t.writeback(i)
		}
		return
	}
	i := t.allocate(wordAddr)
	t.accum[i] |= bit
	if t.cfg.Policy == LoadUpdate {
		// Load the old word now so the entry holds the merged value.
		t.accum[i] |= t.storage.ReadU32(wordAddr)
		t.issueLoad(wordAddr)
	}
}

// find returns the slot caching wordAddr, or -1.
func (t *Tracker) find(wordAddr uint64) int {
	for i, w := range t.words {
		if w == wordAddr {
			return i
		}
	}
	return -1
}

// popcount returns the number of *new* bits slot i would contribute —
// for LoadUpdate the entry holds merged state, which still works as a
// writeback-pressure heuristic.
func (t *Tracker) popcount(i int) int { return bits.OnesCount32(t.accum[i]) }

// allocate claims the first unused slot for wordAddr, or evicts a
// victim when every slot is in use, and returns the slot.
func (t *Tracker) allocate(wordAddr uint64) int {
	i := t.find(noWord)
	if i < 0 {
		i = t.selectVictim()
		t.cEvictions.Inc()
		t.writeback(i)
	}
	t.words[i] = wordAddr
	return i
}

// selectVictim applies the LWM policy: the first entry with fewer set
// bits than LWM (prioritising eviction of momentarily-touched call/return
// frames), else a random entry. Every slot is in use when it runs.
func (t *Tracker) selectVictim() int {
	for i := range t.words {
		if t.popcount(i) < t.cfg.LWM {
			t.cLWMEvictions.Inc()
			if t.Trace.Enabled() {
				t.Trace.Instant(t.TraceTrack, "lwm_eviction", telemetry.I("bits", int64(t.popcount(i))))
			}
			return i
		}
	}
	t.cRandomEvictions.Inc()
	if t.Trace.Enabled() {
		t.Trace.Instant(t.TraceTrack, "random_eviction")
	}
	return t.rng.Intn(len(t.words))
}

// writeback flushes slot i to the bitmap and frees it. Under
// AccumulateApply the store request is converted into a load of the old
// word, a merge, and a store only if the merge changed it. The functional
// merge happens atomically here; the load/store traffic is timed.
func (t *Tracker) writeback(i int) {
	wordAddr, accum := t.words[i], t.accum[i]
	t.words[i] = noWord
	t.accum[i] = 0
	if accum == 0 {
		return
	}
	old := t.storage.ReadU32(wordAddr)
	merged := old | accum
	switch t.cfg.Policy {
	case AccumulateApply:
		t.issueLoad(wordAddr)
		if merged != old {
			t.storage.WriteU32(wordAddr, merged)
			t.issueStore(wordAddr)
		}
	case LoadUpdate:
		// The entry already holds merged state (loaded at allocation);
		// writeback is a plain store when something changed.
		if merged != old {
			t.storage.WriteU32(wordAddr, merged)
			t.issueStore(wordAddr)
		}
	}
}

func (t *Tracker) loadRetired()  { t.outstandingLoads-- }
func (t *Tracker) storeRetired() { t.outstandingStores-- }

func (t *Tracker) issueLoad(wordAddr uint64) {
	t.outstandingLoads++
	t.cBitmapLoads.Inc()
	t.port.Access(false, wordAddr, t.loadDoneTok)
}

func (t *Tracker) issueStore(wordAddr uint64) {
	t.outstandingStores++
	t.cBitmapStores.Inc()
	t.port.Access(true, wordAddr, t.storeDoneTok)
}

// Flush evicts every table entry (checkpoint end or context switch). The
// OS must then poll Quiesced before inspecting the bitmap.
func (t *Tracker) Flush() {
	t.cFlushes.Inc()
	t.hFlushEntries.Observe(uint64(t.LiveEntries()))
	if t.Trace.Enabled() {
		t.Trace.Instant(t.TraceTrack, "flush", telemetry.I("live_entries", int64(t.LiveEntries())))
	}
	for i, w := range t.words {
		if w != noWord {
			t.writeback(i)
		}
	}
}

// Quiesced reports whether all tracker-generated loads and stores have
// completed (the hardware indicator the OS polls in step two of the
// two-step quiescence protocol).
func (t *Tracker) Quiesced() bool {
	return t.outstandingLoads == 0 && t.outstandingStores == 0
}

// FlushAndWait flushes and calls done once quiescent, polling every few
// cycles like the OS loop would.
func (t *Tracker) FlushAndWait(done func()) {
	began := t.eng.Now()
	t.Flush()
	var poll func()
	poll = func() {
		if t.Quiesced() {
			t.hFlushWait.Observe(uint64(t.eng.Now() - began))
			done()
			return
		}
		t.eng.Schedule(sim.CompProsper, 10, poll)
	}
	t.eng.Schedule(sim.CompProsper, 0, poll)
}

// TouchedRange returns the lowest and highest tracked byte touched during
// the interval — the "maximum active stack region" the hardware shares
// with the OS so bitmap inspection and clearing can be bounded.
func (t *Tracker) TouchedRange() (lo, hi uint64, any bool) {
	return t.touchedLo, t.touchedHi, t.anyTouched
}

// WidenTouched extends the touched range to cover [lo, hi); the OS uses
// it when it records dirty granules on the tracker's behalf (inter-thread
// stack writes taking the fault path of Section III-C).
func (t *Tracker) WidenTouched(lo, hi uint64) {
	if lo >= hi {
		return
	}
	if !t.anyTouched || lo < t.touchedLo {
		t.touchedLo = lo
	}
	if !t.anyTouched || hi > t.touchedHi {
		t.touchedHi = hi
	}
	t.anyTouched = true
}

// ResetInterval clears the touched-range state for the next checkpoint
// interval. The bitmap itself is cleared by the OS.
func (t *Tracker) ResetInterval() {
	t.anyTouched = false
	t.touchedLo, t.touchedHi = 0, 0
}

// SaveState captures MSRs and touched-range state for a context switch.
// Callers must have flushed and reached quiescence first; violating that
// is a kernel bug, so it panics.
func (t *Tracker) SaveState() State {
	if !t.Quiesced() {
		panic("prosper: SaveState before quiescence")
	}
	if t.LiveEntries() != 0 {
		panic("prosper: SaveState with live table entries")
	}
	return State{
		MSRs:       t.msrs,
		TouchedLo:  t.touchedLo,
		TouchedHi:  t.touchedHi,
		AnyTouched: t.anyTouched,
	}
}

// RestoreState loads a previously saved context.
func (t *Tracker) RestoreState(s State) {
	t.msrs = s.MSRs
	t.touchedLo = s.TouchedLo
	t.touchedHi = s.TouchedHi
	t.anyTouched = s.AnyTouched
}

// LiveEntries returns how many lookup-table entries are in use (tests and
// the energy model).
func (t *Tracker) LiveEntries() int {
	n := 0
	for _, w := range t.words {
		if w != noWord {
			n++
		}
	}
	return n
}
