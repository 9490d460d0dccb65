package persist

import (
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/prosper"
	"prosper/internal/sim"
)

// ProsperConfig parameterizes the Prosper checkpoint mechanism.
type ProsperConfig struct {
	Granularity uint64 // tracking granularity, multiple of 8 (default 8)
}

// scanPerWord is the OS cost of examining one bitmap word during
// inspection (coalescing within every eight bytes of bitmap).
const scanPerWord = sim.Time(2)

func (c ProsperConfig) withDefaults() ProsperConfig {
	if c.Granularity == 0 {
		c.Granularity = 8
	}
	return c
}

// Prosper is the paper's mechanism: the segment stays in DRAM; the
// per-core hardware tracker records dirty granules into a DRAM bitmap;
// checkpoints flush the tracker, inspect only the touched window, and run
// the two-step copy into NVM.
type Prosper struct {
	base
	cfg ProsperConfig

	bitmapPhys  uint64
	bitmapBytes uint64
	state       prosper.State
	cur         *prosper.Tracker // tracker of the core we're scheduled on
	curCore     int              // core the tracker lives on (-1 when off-core)
}

// NewProsper returns a factory for the Prosper mechanism.
func NewProsper(cfg ProsperConfig) Factory {
	return func() Mechanism { return &Prosper{cfg: cfg.withDefaults(), curCore: -1} }
}

// Name implements Mechanism.
func (p *Prosper) Name() string { return "prosper" }

// PlaceInNVM implements Mechanism: Prosper keeps the stack in DRAM.
func (p *Prosper) PlaceInNVM() bool { return false }

// Attach implements Mechanism: allocate and zero the DRAM bitmap area and
// prepare the tracker MSR state.
func (p *Prosper) Attach(env *Env, seg Segment) {
	p.attach(env, seg)
	if env.Trackers == nil {
		panic("persist: Prosper mechanism on a machine without trackers")
	}
	p.bitmapBytes = prosper.BitmapBytes(seg.Size(), p.cfg.Granularity)
	pages := int((p.bitmapBytes + mem.PageSize - 1) / mem.PageSize)
	base, err := env.Mach.DRAMFrames.AllocContiguous(pages)
	if err != nil {
		panic("persist: " + err.Error())
	}
	p.bitmapPhys = base
	p.state = prosper.State{MSRs: prosper.MSRs{
		StackLo:    seg.Lo,
		StackHi:    seg.Hi,
		BitmapBase: base,
		Gran:       p.cfg.Granularity,
		Enabled:    true,
	}}
}

// OnStore implements Mechanism: stores issued on the core the owning
// thread runs on are observed by that core's tracker hardware, off the
// critical path. Inter-thread stack writes — stores from a different core
// (or while the owner is descheduled) — cannot be seen by the owner's
// tracker MSR range, so they take the paper's §III-C path: a
// write-permission fault lets the OS record the dirty granules in the
// bitmap before allowing the write, at page-fault cost.
func (p *Prosper) OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	if p.cur != nil && core.ID == p.curCore {
		p.cur.ObserveStore(vaddr, size)
		return 0 // tracking is off the critical path by design
	}
	p.recordSoftware(vaddr, size)
	p.Counters.Inc("prosper.interthread_faults")
	return machine.PageFaultCycles
}

// recordSoftware is the OS fault handler's bitmap update for writes the
// tracker hardware cannot observe: set the granule bits directly and
// widen the live touched window.
func (p *Prosper) recordSoftware(vaddr uint64, size int) {
	msrs := p.state.MSRs
	if p.cur != nil {
		msrs = p.cur.MSRState()
	}
	if size <= 0 || vaddr >= msrs.StackHi || vaddr+uint64(size) <= msrs.StackLo {
		return
	}
	lo, hi := vaddr, vaddr+uint64(size)
	if lo < msrs.StackLo {
		lo = msrs.StackLo
	}
	if hi > msrs.StackHi {
		hi = msrs.StackHi
	}
	st := p.env.Mach.Storage
	firstG := (lo - msrs.StackLo) / msrs.Gran
	lastG := (hi - 1 - msrs.StackLo) / msrs.Gran
	for g := firstG; g <= lastG; g++ {
		wordAddr := msrs.BitmapBase + (g/32)*4
		st.WriteU32(wordAddr, st.ReadU32(wordAddr)|1<<(g%32))
	}
	// Timed bitmap update from the fault path.
	p.env.Mach.Ctl.Access(true, msrs.BitmapBase+(firstG/32)*4, sim.Done{})
	if p.cur != nil {
		p.cur.WidenTouched(lo, hi)
		return
	}
	if !p.state.AnyTouched || lo < p.state.TouchedLo {
		p.state.TouchedLo = lo
	}
	if !p.state.AnyTouched || hi > p.state.TouchedHi {
		p.state.TouchedHi = hi
	}
	p.state.AnyTouched = true
}

// msrWriteCost is charged per scheduling transition for programming the
// tracker's five MSRs (~10 cycles per WRMSR).
const msrWriteCost = 50

// OnScheduleIn implements Mechanism: restore tracker context on the core.
func (p *Prosper) OnScheduleIn(core *machine.Core, done func()) {
	tr := p.env.Trackers[core.ID]
	tr.RestoreState(p.state)
	p.cur = tr
	p.curCore = core.ID
	p.Counters.Inc("prosper.schedule_in")
	p.env.Eng().Schedule(sim.CompPersist, msrWriteCost, done)
}

// OnScheduleOut implements Mechanism: flush the lookup table, wait for
// quiescence, and save the tracker context.
func (p *Prosper) OnScheduleOut(core *machine.Core, done func()) {
	tr := p.cur
	if tr == nil {
		p.env.Eng().Schedule(sim.CompPersist, 0, done)
		return
	}
	// Inside a checkpoint epoch the table flush is its own pause cause;
	// outside one (ordinary context switch) the switches are no-ops.
	p.env.Attrib.Switch(CauseTrackerFlush)
	tr.FlushAndWait(func() {
		p.state = tr.SaveState()
		tr.Disable()
		p.cur = nil
		p.curCore = -1
		p.Counters.Inc("prosper.schedule_out")
		p.env.Attrib.Switch(CauseQuiesce)
		p.env.Eng().Schedule(sim.CompPersist, msrWriteCost, done)
	})
}

// BeginInterval implements Mechanism.
func (p *Prosper) BeginInterval() {
	if p.cur != nil {
		p.cur.ResetInterval()
		return
	}
	p.state.AnyTouched = false
	p.state.TouchedLo, p.state.TouchedHi = 0, 0
}

// Checkpoint implements Mechanism. The kernel calls it after
// OnScheduleOut, so the tracker state is saved and the bitmap quiescent.
func (p *Prosper) Checkpoint(done func(Result)) {
	p.env.Attrib.Switch(CauseInspectClear)
	msrs := p.state.MSRs
	winLo, winHi, any := p.state.TouchedLo, p.state.TouchedHi, p.state.AnyTouched
	res := prosper.Inspect(p.env.Mach.Storage, msrs, winLo, winHi, any)
	p.Counters.Add("prosper.ckpt_dirty_bytes", res.DirtyBytes)
	p.Counters.Add("prosper.ckpt_words_read", res.WordsRead)

	extents := make([]extent, len(res.Ranges))
	for i, r := range res.Ranges {
		extents[i] = extent{off: r.Addr - p.seg.Lo, size: r.Size}
	}
	// Charge the bitmap inspection (touched window only, thanks to the
	// hardware-reported max active region), then clear the set words and
	// run the two-step copy.
	scanBase, scanBytes := p.scanWindow(msrs, winLo, winHi, any)
	timedScan(p.env.Mach, scanBase, scanBytes, res.WordsRead, scanPerWord, func() {
		cleared := prosper.Clear(p.env.Mach.Storage, msrs, winLo, winHi, any)
		p.Counters.Add("prosper.ckpt_words_cleared", cleared)
		clearDone := func() {
			p.persistExtents(extents, func(r Result) {
				r.MetaScanned = res.WordsRead
				done(r)
			})
		}
		if cleared == 0 {
			clearDone()
			return
		}
		// The clearing stores go to the bitmap lines (DRAM).
		p.env.Mach.WritePhys(scanBase, make([]byte, cleared*4), clearDone)
	})
}

func (p *Prosper) scanWindow(msrs prosper.MSRs, winLo, winHi uint64, any bool) (base, bytes uint64) {
	if !any || winLo >= winHi {
		return p.bitmapPhys, 0
	}
	firstWord := ((winLo - msrs.StackLo) / msrs.Gran) / 32
	lastWord := ((winHi - 1 - msrs.StackLo) / msrs.Gran) / 32
	return p.bitmapPhys + firstWord*4, (lastWord - firstWord + 1) * 4
}

// Recover implements Mechanism.
func (p *Prosper) Recover(done func()) { p.recoverImage(done) }
