// Package kernel is the GemOS-equivalent operating-system layer of the
// reproduction: processes and threads over the simulated machine, a
// round-robin per-core scheduler that saves/restores Prosper tracker
// state across context switches, the periodic checkpoint engine that
// drives the persistence mechanisms, and the post-crash recovery path
// that rebuilds processes from their NVM checkpoint areas.
package kernel

import (
	"encoding/binary"
	"fmt"

	"prosper/internal/journey"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
)

// ContextSwitchCost is the fixed kernel-path cost of a context switch
// (excluding mechanism save/restore, which is timed for real).
const ContextSwitchCost = sim.Time(300)

// Config sizes the kernel and the machine beneath it.
type Config struct {
	Machine machine.Config
	// Quantum is the scheduler time slice (default 1 ms).
	Quantum sim.Time
	// TrackerCfg parameterizes the per-core Prosper dirty trackers.
	TrackerCfg prosper.Config
	// Tracer, when non-nil, receives sim-time telemetry: checkpoint
	// phase spans, tracker flush/HWM/eviction instants, and periodic
	// occupancy samples of the memory system. Nil (the default) keeps
	// every instrumentation site on its zero-cost fast path.
	Tracer *telemetry.Tracer
	// SampleEvery is the cadence, in cycles, at which the Tracer's
	// occupancy counter tracks are sampled (default 10 µs of sim time);
	// only meaningful with a Tracer.
	SampleEvery sim.Time
	// Journey, when non-nil, samples end-to-end access journeys on every
	// component of the memory path (internal/journey). Nil (the default)
	// keeps the access path on its zero-allocation fast path.
	Journey *journey.Recorder
}

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = sim.Millisecond
	}
	return c
}

// Kernel is one booted OS instance.
type Kernel struct {
	Cfg      Config
	Mach     *machine.Machine
	Eng      *sim.Engine
	Trackers []*prosper.Tracker

	procs   []*Process
	cores   []*coreState
	nextPID int

	super *superblock

	// samples counts the tracer's occupancy-sampler ticks (see Events).
	samples uint64

	Counters *stats.Counters
	// Trace is the kernel's tracer (nil when telemetry is disabled).
	Trace *telemetry.Tracer
}

type coreState struct {
	core  *machine.Core
	runq  []*Thread
	cur   *Thread
	homed int // threads placed on this core (even before first enqueue)
}

// New boots a kernel on a fresh machine (or, when cfg.Machine.Storage is
// set, on surviving NVM contents after a crash).
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	m := machine.New(cfg.Machine)
	m.AttachJourneys(cfg.Journey)
	k := &Kernel{
		Cfg:      cfg,
		Mach:     m,
		Eng:      m.Eng,
		Counters: stats.NewCounters(),
	}
	for i, c := range m.Cores {
		trCfg := cfg.TrackerCfg
		trCfg.Seed = cfg.TrackerCfg.Seed + uint64(i) + 1
		tr := prosper.New(m.Eng, c.L2(), m.Storage, trCfg)
		k.Trackers = append(k.Trackers, tr)
		k.cores = append(k.cores, &coreState{core: c})
	}
	k.super = loadOrInitSuperblock(m.Storage, m.PersistNVM)
	for _, cs := range k.cores {
		cs := cs
		m.Eng.NewTicker(sim.CompKernel, cfg.Quantum, func() { k.timerTick(cs) })
	}
	k.startTelemetry()
	return k
}

// startTelemetry binds the tracer to the engine, gives the trackers
// their event lanes, and starts the periodic sampler of the occupancy
// counter tracks (memory queues, MSHRs, store buffers, tracker tables).
// With a nil tracer it does nothing: no lanes, no ticker, no events.
func (k *Kernel) startTelemetry() {
	k.Trace = k.Cfg.Tracer
	if !k.Trace.Enabled() {
		return
	}
	m := k.Mach
	k.Trace.Bind(m.Eng)
	var probes []telemetry.CounterProbe
	memTrack := k.Trace.Track("memory")
	for _, d := range []*mem.Device{m.Ctl.DRAM, m.Ctl.NVM} {
		d := d
		probes = append(probes,
			telemetry.CounterProbe{Track: memTrack, Name: d.Name() + ".read_queue", Series: "depth",
				Get: func() int64 { return int64(d.ReadQueueDepth()) }},
			telemetry.CounterProbe{Track: memTrack, Name: d.Name() + ".write_queue", Series: "depth",
				Get: func() int64 { return int64(d.WriteQueueDepth()) }},
		)
	}
	probes = append(probes, telemetry.CounterProbe{Track: memTrack, Name: "l3.mshrs", Series: "in_use",
		Get: func() int64 { return int64(m.Hier.L3.MSHRsInUse()) }})
	for i, c := range m.Hier.L1D {
		c := c
		probes = append(probes, telemetry.CounterProbe{Track: memTrack,
			Name: fmt.Sprintf("l1d%d.mshrs", i), Series: "in_use",
			Get: func() int64 { return int64(c.MSHRsInUse()) }})
	}
	for i, cs := range k.cores {
		core := cs.core
		probes = append(probes, telemetry.CounterProbe{Track: memTrack,
			Name: fmt.Sprintf("core%d.store_buffer", i), Series: "in_use",
			Get: func() int64 { return int64(core.StoreBufferInUse()) }})
	}
	for i, tr := range k.Trackers {
		tr := tr
		tr.Trace = k.Trace
		tr.TraceTrack = k.Trace.Track(fmt.Sprintf("tracker%d", i))
		probes = append(probes, telemetry.CounterProbe{Track: tr.TraceTrack,
			Name: fmt.Sprintf("tracker%d.table", i), Series: "occupancy",
			Get: func() int64 { return int64(tr.LiveEntries()) }})
	}
	every := k.Cfg.SampleEvery
	if every <= 0 {
		every = 10 * sim.Microsecond
	}
	m.Eng.NewTicker(sim.CompSim, every, func() {
		k.samples++
		k.Trace.Sample(probes)
	})
}

// Events returns the number of simulation events dispatched so far: the
// engine's count less the tracer's occupancy-sampler ticks, which read
// the machine without changing it. A run counts the same events with
// and without a tracer, so DumpStats reports this count and a snapshot
// measures replay progress by it.
func (k *Kernel) Events() uint64 { return k.Eng.Fired() - k.samples }

// timerTick preempts the core's current thread at its next op boundary.
func (k *Kernel) timerTick(cs *coreState) {
	if cs.cur == nil {
		return
	}
	// Don't churn tracker state when nothing else wants the core.
	if len(cs.runq) == 0 && !cs.cur.pauseRequested {
		return
	}
	cs.cur.needYield = true
}

// leastLoadedCore places new threads round-robin by home count.
func (k *Kernel) leastLoadedCore() *coreState {
	best := k.cores[0]
	for _, cs := range k.cores[1:] {
		if cs.homed < best.homed {
			best = cs
		}
	}
	best.homed++
	return best
}

// enqueue makes a thread runnable on its core and kicks the core if idle.
func (k *Kernel) enqueue(t *Thread) {
	t.state = threadReady
	cs := t.home
	cs.runq = append(cs.runq, t)
	if cs.cur == nil {
		k.scheduleNext(cs)
	}
}

// scheduleNext installs the next runnable thread on the core.
func (k *Kernel) scheduleNext(cs *coreState) {
	if len(cs.runq) == 0 {
		cs.cur = nil
		return
	}
	t := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.cur = t
	t.cs = cs
	t.state = threadRunning
	t.needYield = false
	k.Counters.Inc("kernel.context_switches")
	k.installContext(cs, t)
	start := k.Eng.Now()
	k.Eng.Schedule(sim.CompKernel, ContextSwitchCost, func() {
		t.mech.OnScheduleIn(cs.core, func() {
			t.Proc.heapScheduleIn(cs.core, func() {
				k.Counters.Add("kernel.ctxswitch_in_cycles", uint64(k.Eng.Now()-start))
				k.step(t, cs)
			})
		})
	})
}

// installContext binds the address space, fault handler, store-hook
// dispatcher (routing stores to the owning segment's mechanism) and the
// timing-only store range: a heap no mechanism persists is volatile
// DRAM that no checkpoint, crash image or recovery reads, so its stores
// keep no bytes. Every other process gets an empty range.
func (k *Kernel) installContext(cs *coreState, t *Thread) {
	core := cs.core
	if core.AS != t.Proc.AS {
		core.SwitchContext(t.Proc.AS)
	}
	p := t.Proc
	core.OnFault = func(vaddr uint64, write bool) error {
		k.Counters.Inc("kernel.page_faults")
		_, err := p.AS.HandleFault(vaddr, write)
		return err
	}
	core.StoreHook = func(vaddr, paddr uint64, size int) sim.Time {
		return p.routeStore(core, vaddr, paddr, size)
	}
	core.TimingOnlyLo, core.TimingOnlyHi = 0, 0
	if p.heapMech == nil {
		core.TimingOnlyLo, core.TimingOnlyHi = heapBase, heapBase+p.Cfg.HeapSize
	}
}

// yield removes the current thread from its core, saving mechanism state.
// afterParked runs once the thread is fully off-core (quiescent).
func (k *Kernel) yield(cs *coreState, t *Thread, afterParked func()) {
	start := k.Eng.Now()
	cs.core.DrainStores(func() {
		t.mech.OnScheduleOut(cs.core, func() {
			t.Proc.heapScheduleOut(cs.core, func() {
				k.Counters.Add("kernel.ctxswitch_out_cycles", uint64(k.Eng.Now()-start))
				cs.cur = nil
				afterParked()
				k.scheduleNext(cs)
			})
		})
	})
}

// Procs returns the kernel's processes.
func (k *Kernel) Procs() []*Process { return k.procs }

// FindProc returns the process with the given name, or nil.
func (k *Kernel) FindProc(name string) *Process {
	for _, p := range k.procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// RunFor advances simulation by d cycles.
func (k *Kernel) RunFor(d sim.Time) { k.Eng.RunUntil(k.Eng.Now() + d) }

// RunUntilDone runs until every process's threads have finished or the
// deadline passes; it reports whether everything completed.
func (k *Kernel) RunUntilDone(deadline sim.Time) bool {
	for k.Eng.Now() < deadline {
		if k.allDone() {
			return true
		}
		k.Eng.RunUntil(k.Eng.Now() + sim.Millisecond)
	}
	return k.allDone()
}

func (k *Kernel) allDone() bool {
	for _, p := range k.procs {
		if !p.Done() {
			return false
		}
	}
	return true
}

// --- NVM superblock --------------------------------------------------------

// The first NVM page is the kernel's recovery superblock: a directory of
// process checkpoint areas so a post-crash boot can find them.
const (
	superMagic  = uint64(0x50524f53504552) // "PROSPER"
	superBase   = mem.NVMBase
	superCount  = superBase + 8
	superCursor = superBase + 16
	maxProcRecs = 32
)

type superblock struct {
	storage *mem.Storage
	// persist promotes superblock words across the NVM persistence
	// domain (the kernel fences its tiny directory updates
	// synchronously); nil means no domain (read-only uses like Fsck).
	persist func(addr, size uint64)
}

func (s *superblock) fence(addr, size uint64) {
	if s.persist != nil {
		s.persist(addr, size)
	}
}

func loadOrInitSuperblock(st *mem.Storage, persist func(addr, size uint64)) *superblock {
	s := &superblock{storage: st, persist: persist}
	if s.magic() != superMagic {
		st.WriteU64(superBase, superMagic)
		st.WriteU64(superCount, 0)
		st.WriteU64(superCursor, superBase+mem.PageSize)
		s.fence(superBase, 24)
	}
	return s
}

func (s *superblock) magic() uint64 { return s.storage.ReadU64(superBase) }

// procCount returns the number of process records. A count above the
// directory's capacity is refused before any record is read.
func (s *superblock) procCount() (uint64, error) {
	n := s.storage.ReadU64(superCount)
	if n > maxProcRecs {
		return 0, fmt.Errorf("superblock: process count %d exceeds capacity", n)
	}
	return n, nil
}

// cursor is the NVM bump pointer, persisted so reboots do not hand out
// used regions again.
func (s *superblock) cursor() uint64 { return s.storage.ReadU64(superCursor) }

// procRecord is the fixed-size per-process directory entry: the name,
// NUL-padded to procNameLen bytes, then the header address.
const (
	procRecSize = 128
	procNameLen = 48
)

func (s *superblock) recAddr(i uint64) uint64 {
	return superBase + 64 + i*procRecSize
}

// proc reads directory record i.
func (s *superblock) proc(i uint64) (name string, headerAddr uint64) {
	rec := s.recAddr(i)
	var nameBuf [procNameLen]byte
	s.storage.Read(rec, nameBuf[:])
	return cstr(nameBuf[:]), s.storage.ReadU64(rec + procNameLen)
}

// allocNVM reserves a byte range of the checkpoint half of NVM
// (page-aligned) via the persisted bump cursor. The upper half belongs to
// the machine's NVM frame pool (shadow pages, NVM-placed segments).
func (s *superblock) allocNVM(bytes uint64) uint64 {
	bytes = (bytes + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	cur := s.cursor()
	if cur+bytes > mem.NVMBase+mem.NVMSize/2 {
		panic("kernel: out of NVM checkpoint space")
	}
	s.storage.WriteU64(superCursor, cur+bytes)
	s.fence(superCursor, 8)
	return cur
}

// allocSegment reserves a segment's NVM image and meta areas, in that
// order.
func (s *superblock) allocSegment(imageSize, metaSize uint64) persist.Segment {
	return persist.Segment{ImageBase: s.allocNVM(imageSize), MetaBase: s.allocNVM(metaSize), MetaSize: metaSize}
}

func (s *superblock) addProc(name string, headerAddr uint64) {
	n, err := s.procCount()
	check(err)
	if n >= maxProcRecs {
		panic("kernel: superblock full")
	}
	rec := s.recAddr(n)
	var nameBuf [procNameLen]byte
	copy(nameBuf[:], name)
	s.storage.Write(rec, nameBuf[:])
	s.storage.WriteU64(rec+procNameLen, headerAddr)
	s.fence(rec, 56)
	s.storage.WriteU64(superCount, n+1)
	s.fence(superCount, 8)
}

func (s *superblock) findProc(name string) (headerAddr uint64, ok bool, err error) {
	count, err := s.procCount()
	if err != nil {
		return 0, false, err
	}
	for i := uint64(0); i < count; i++ {
		if n, addr := s.proc(i); n == name {
			return addr, true, nil
		}
	}
	return 0, false, nil
}

func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// sanity check helpers used across the package.
func mustU64(buf []byte, off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }

func putU64(buf []byte, off int, v uint64) { binary.LittleEndian.PutUint64(buf[off:], v) }

func check(err error) {
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
}
