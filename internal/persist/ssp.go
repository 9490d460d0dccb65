package persist

import (
	"math/bits"
	"slices"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/sim"
)

// SSPConfig parameterizes sub-page shadow paging.
type SSPConfig struct {
	// ConsolidationInterval is the period of the background OS thread
	// that merges the two physical pages of inactive virtual pages
	// (the paper sweeps 10 µs, 100 µs, and 1 ms).
	ConsolidationInterval sim.Time
}

func (c SSPConfig) withDefaults() SSPConfig {
	if c.ConsolidationInterval == 0 {
		c.ConsolidationInterval = 10 * sim.Microsecond
	}
	return c
}

// SSP implements the sub-page shadow-paging scheme (Ni et al. [41]): the
// segment lives in NVM; hardware-assisted cache-line remapping spreads
// each virtual page's writes across two physical pages, tracked by a
// per-page line bitmap in an extended TLB; a background OS thread
// consolidates the two pages of inactive virtual pages; and each
// consistency interval writes back modified lines (clwb) and applies the
// TLB bitmaps onto the commit bitmap kept in NVM.
//
// Functionally our store path keeps a single authoritative copy; SSP here
// reproduces the scheme's traffic and timing: NVM-resident data, shadow
// allocation, consolidation reads/writes, per-line writebacks, and
// per-page commit-bitmap updates.
type SSP struct {
	base
	cfg SSPConfig

	shadow  map[uint64]uint64 // virtual page -> shadow NVM frame
	working map[uint64]uint64 // virtual page -> line bitmap this interval
	hot     map[uint64]bool   // pages written since the last consolidation tick
	pending map[uint64]uint64 // pages awaiting consolidation -> unconsolidated lines

	ticker *sim.Ticker
}

// NewSSP returns a factory for the SSP mechanism.
func NewSSP(cfg SSPConfig) Factory {
	return func() Mechanism { return &SSP{cfg: cfg.withDefaults()} }
}

// Name implements Mechanism.
func (s *SSP) Name() string { return "ssp" }

// PlaceInNVM implements Mechanism: shadow paging keeps data in NVM.
func (s *SSP) PlaceInNVM() bool { return true }

// Attach implements Mechanism: start the consolidation thread.
func (s *SSP) Attach(env *Env, seg Segment) {
	s.attach(env, seg)
	s.shadow = make(map[uint64]uint64)
	s.working = make(map[uint64]uint64)
	s.hot = make(map[uint64]bool)
	s.pending = make(map[uint64]uint64)
	s.ticker = env.Eng().NewTicker(sim.CompPersist, s.cfg.ConsolidationInterval, s.consolidateTick)
}

// Detach stops the consolidation thread (process exit).
func (s *SSP) Detach() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// remapPenalty is the base stall the first store to a line pays in each
// consistency interval: a sub-line store to a line whose committed
// version lives in the other physical twin must fetch-merge that version
// from NVM before the redirected write can complete — one NVM read in the
// store pipeline, stretched by whatever congestion the NVM is under
// (which is how the consolidation thread's invocation frequency shows up
// in application performance).
const remapPenalty = 450

// OnStore implements Mechanism: record the modified line in the extended
// TLB bitmap, lazily allocate the page's shadow twin, and charge the
// shadow-remap resolution on the first touch of each line per interval.
func (s *SSP) OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	firstLine := (vaddr >> mem.LineShift) & 63
	lastLine := ((vaddr + uint64(size) - 1) >> mem.LineShift) & 63
	page := vaddr &^ (mem.PageSize - 1)
	if _, ok := s.shadow[page]; !ok {
		f, err := s.env.Mach.NVMFrames.Alloc()
		if err != nil {
			panic("persist: ssp out of NVM frames: " + err.Error())
		}
		s.shadow[page] = f
		s.Counters.Inc("ssp.shadow_pages")
	}
	var stall sim.Time
	for l := firstLine; ; l++ {
		bit := uint64(1) << l
		if s.working[page]&bit == 0 {
			// First store to this line this interval: fetch the committed
			// version from the other twin (timed traffic + pipeline stall,
			// stretched by current NVM congestion).
			s.Counters.Inc("ssp.remap_fetches")
			s.env.Mach.Ctl.Access(false, s.shadow[page]+uint64(l)*mem.LineSize, sim.Done{})
			stall = remapPenalty + s.env.Mach.Ctl.NVM.EstimatedWait()
		}
		s.working[page] |= bit
		if l == lastLine {
			break
		}
	}
	s.hot[page] = true
	return stall
}

// consolidateTick merges inactive pages' twins: for each pending page not
// written since the previous tick, read the remapped lines from one twin
// and write them to the other — real NVM traffic that contends with the
// application, which is exactly the interference the paper measures when
// sweeping the invocation interval.
func (s *SSP) consolidateTick() {
	// The OS thread walks its pending-page list every invocation: one NVM
	// line read per 8 pending-page records (plus one for the list head).
	if n := len(s.pending); n > 0 {
		metaLines := (n*8+mem.LineSize-1)/mem.LineSize + 1
		for i := 0; i < metaLines; i++ {
			s.env.Mach.Ctl.Access(false, s.seg.MetaBase+uint64(i)*mem.LineSize, sim.Done{})
		}
		s.Counters.Add("ssp.metadata_reads", uint64(metaLines))
	}
	// Walk pending pages in address order: these accesses contend with
	// the application on the timed NVM device, so map-iteration order
	// would leak nondeterminism into every co-running measurement.
	pages := make([]uint64, 0, len(s.pending))
	for page := range s.pending { //prosperlint:ignore maprange keys sorted before use
		pages = append(pages, page)
	}
	slices.Sort(pages)
	for _, page := range pages {
		if s.hot[page] {
			continue
		}
		lines := s.pending[page]
		delete(s.pending, page)
		n := bits.OnesCount64(lines)
		s.Counters.Add("ssp.consolidated_lines", uint64(n))
		shadowFrame := s.shadow[page]
		for l := 0; l < 64; l++ {
			if lines&(1<<uint(l)) == 0 {
				continue
			}
			lineAddr := shadowFrame + uint64(l)*mem.LineSize
			s.env.Mach.Ctl.Access(false, lineAddr, sim.Done{}) // read one twin
			s.env.Mach.Ctl.Access(true, lineAddr, sim.Done{})  // write the other
		}
	}
	// Pages written during this tick become pending for the next. The
	// merge is commutative, so map order is harmless here.
	for page := range s.hot { //prosperlint:ignore maprange commutative OR-merge
		s.pending[page] |= s.working[page]
		delete(s.hot, page)
	}
}

// OnScheduleIn implements Mechanism.
func (s *SSP) OnScheduleIn(core *machine.Core, done func()) { done() }

// OnScheduleOut implements Mechanism.
func (s *SSP) OnScheduleOut(core *machine.Core, done func()) { done() }

// BeginInterval implements Mechanism.
func (s *SSP) BeginInterval() {}

// Checkpoint implements Mechanism: clwb every modified line, send the
// extended-TLB bitmaps to the SSP cache, and apply them onto the commit
// bitmap in NVM (one line write per touched page's bitmap entry).
func (s *SSP) Checkpoint(done func(Result)) {
	// The pause is dominated by the clwb sweep and commit-bitmap writes
	// draining through the NVM write buffers.
	s.env.Attrib.Switch(CauseNVMDrain)
	var res Result
	m := s.env.Mach
	type pageWork struct {
		page  uint64
		lines uint64
	}
	var work []pageWork
	for page, lines := range s.working { //prosperlint:ignore maprange keys sorted before use
		work = append(work, pageWork{page, lines})
	}
	// Deterministic order.
	slices.SortFunc(work, func(a, b pageWork) int {
		switch {
		case a.page < b.page:
			return -1
		case a.page > b.page:
			return 1
		}
		return 0
	})
	pendingOps := 0
	fired := false
	complete := func() {
		pendingOps--
		if pendingOps == 0 && fired {
			s.commitEpoch()
			done(res)
		}
	}
	completeTok := sim.Thunk(sim.CompPersist, complete)
	for _, w := range work {
		res.Ranges++
		paddr, _, ok := s.env.AS.PT.Translate(w.page)
		if !ok {
			continue
		}
		n := bits.OnesCount64(w.lines)
		res.BytesCopied += uint64(n) * mem.LineSize
		for l := 0; l < 64; l++ {
			if w.lines&(1<<uint(l)) == 0 {
				continue
			}
			pendingOps++
			m.Ctl.Access(true, paddr+uint64(l)*mem.LineSize, completeTok) // clwb
		}
		// Commit-bitmap update in NVM: one line write per page entry. The
		// entry functionally records the page's main NVM frame so recovery
		// can rebuild the virtual->frame mapping; the durability of that
		// record rides this same timed line write through the persistence
		// domain (no extra traffic).
		pendingOps++
		commitAddr := s.seg.MetaBase + metaEntries + ((w.page-s.seg.Lo)/mem.PageSize)*8
		m.Storage.WriteU64(commitAddr, paddr&^(mem.PageSize-1))
		m.Ctl.Access(true, commitAddr, completeTok)
		res.MetaScanned++
	}
	s.working = make(map[uint64]uint64)
	fired = true
	if pendingOps == 0 {
		s.env.Eng().Schedule(sim.CompPersist, 0, func() {
			s.commitEpoch()
			done(res)
		})
	}
}

// commitEpoch records the completed interval's sequence number in the
// segment's commit record. SSP has no single atomic commit point (lines
// persist in place as their writebacks complete); the sequence word is a
// tiny metadata update promoted across the persistence domain when the
// interval's last writeback has already completed.
func (s *SSP) commitEpoch() {
	s.env.Attrib.Switch(CauseCommitFence)
	s.seq++
	st := s.env.Mach.Storage
	st.WriteU64(s.seg.MetaBase+metaPhase, phaseApplied)
	st.WriteU64(s.seg.MetaBase+metaSeq, s.seq)
	s.env.Mach.PersistNVM(s.seg.MetaBase, 16)
}

// Recover implements Mechanism: the durable commit-bitmap entries name
// the NVM frame that held each committed virtual page. The fresh address
// space hands out new frames, so recovery first gathers every surviving
// page's bytes from its old frame (before any remapping can reuse those
// frames), then maps the pages and writes the contents into the new
// frames. Lines never written before the crash are zero in both the old
// and the new frame, so whole-page copies are safe.
func (s *SSP) Recover(done func()) {
	m := s.env.Mach
	st := m.Storage
	if st.ReadU64(s.seg.MetaBase+metaPhase) == phaseEmpty {
		s.env.Eng().Schedule(sim.CompPersist, 0, done)
		return
	}
	type page struct {
		va   uint64
		data []byte
	}
	var pages []page
	nPages := s.seg.Size() / mem.PageSize
	for i := uint64(0); i < nPages; i++ {
		frame := st.ReadU64(s.seg.MetaBase + metaEntries + i*8)
		if frame == 0 {
			continue
		}
		buf := make([]byte, mem.PageSize)
		st.Read(frame, buf)
		pages = append(pages, page{va: s.seg.Lo + i*mem.PageSize, data: buf})
	}
	if len(pages) == 0 {
		s.env.Eng().Schedule(sim.CompPersist, 0, done)
		return
	}
	pending := len(pages)
	for _, pg := range pages {
		s.env.AS.EnsureRange(pg.va, pg.va+mem.PageSize)
		paddr, _, ok := s.env.AS.PT.Translate(pg.va)
		if !ok {
			panic("persist: ssp recovery mapping failed")
		}
		m.WritePhys(paddr, pg.data, func() {
			pending--
			if pending == 0 {
				done()
			}
		})
	}
}
