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

// Config sizes the kernel and the machine beneath it.
type Config struct {
	Machine machine.Config
	// Quantum is the scheduler time slice (default 1 ms).
	Quantum sim.Time
	// TrackerCfg parameterizes the per-core Prosper dirty trackers.
	TrackerCfg prosper.Config
	// ContextSwitchCost is the fixed kernel-path cost of a switch
	// (excluding mechanism save/restore, which is timed for real).
	ContextSwitchCost sim.Time
	// ParallelStackCheckpoint persists all threads' stacks concurrently
	// during a process checkpoint instead of thread-by-thread; the copies
	// contend in the memory system but overlap their latencies. Still
	// fully deterministic (the event engine fixes the interleaving).
	ParallelStackCheckpoint bool
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
	if c.ContextSwitchCost <= 0 {
		c.ContextSwitchCost = 300
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

	// hookProc/hookSync identify the commit hook currently executing (the
	// only point a simulator snapshot may be taken): the process whose
	// checkpoint just committed, and whether the checkpoint was triggered
	// synchronously (a host-side done closure is pending, which no
	// snapshot can carry). LoadSnap re-enters this state so a resumed
	// kernel is indistinguishable from one paused inside the hook.
	hookProc *Process
	hookSync bool

	Counters *stats.Counters
	// Trace is the kernel's tracer (nil when telemetry is disabled).
	//prosperlint:ignore snapshot SaveSnap rejects traced kernels; host-side tracer state never crosses a snapshot
	Trace *telemetry.Tracer
}

type coreState struct {
	id    int
	core  *machine.Core
	runq  []*Thread
	cur   *Thread
	idle  bool
	homed int // threads placed on this core (even before first enqueue)
	timer *sim.Ticker
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
		k.cores = append(k.cores, &coreState{id: i, core: c, idle: true})
	}
	k.super = loadOrInitSuperblock(m.Storage, m.PersistNVM)
	for _, cs := range k.cores {
		cs := cs
		cs.timer = m.Eng.NewTicker(sim.CompKernel, cfg.Quantum, func() { k.timerTick(cs) })
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
	m.Eng.NewTicker(sim.CompSim, every, func() { k.Trace.Sample(probes) })
}

// env builds the mechanism environment for a process.
func (k *Kernel) env(p *Process) *persist.Env {
	return &persist.Env{Mach: k.Mach, AS: p.AS, Trackers: k.Trackers, Attrib: p.attrib}
}

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
		cs.idle = true
		return
	}
	t := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.cur = t
	t.cs = cs
	cs.idle = false
	t.state = threadRunning
	t.needYield = false
	k.Counters.Inc("kernel.context_switches")
	k.installContext(cs, t)
	start := k.Eng.Now()
	k.Eng.Schedule(sim.CompKernel, k.Cfg.ContextSwitchCost, func() {
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
		for _, t := range p.Threads {
			if t.state != threadDone {
				return false
			}
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
	maxProcRecs = 32
)

type superblock struct {
	storage *mem.Storage
	// persist promotes superblock words across the NVM persistence
	// domain (the kernel fences its tiny directory updates
	// synchronously); nil means no domain (read-only uses like Fsck).
	persist func(addr, size uint64)
	// nvmCursor is the bump pointer for NVM area allocation, persisted in
	// the superblock so reboots do not re-hand-out used regions.
}

func (s *superblock) fence(addr, size uint64) {
	if s.persist != nil {
		s.persist(addr, size)
	}
}

func loadOrInitSuperblock(st *mem.Storage, persist func(addr, size uint64)) *superblock {
	s := &superblock{storage: st, persist: persist}
	if st.ReadU64(superBase) != superMagic {
		st.WriteU64(superBase, superMagic)
		st.WriteU64(superBase+8, 0)                       // proc count
		st.WriteU64(superBase+16, superBase+mem.PageSize) // NVM bump cursor
		s.fence(superBase, 24)
	}
	return s
}

func (s *superblock) procCount() int { return int(s.storage.ReadU64(superBase + 8)) }

// procRecord is the fixed-size per-process directory entry: the name,
// NUL-padded to procNameLen bytes, then the header address.
const (
	procRecSize = 128
	procNameLen = 48
)

func (s *superblock) recAddr(i int) uint64 {
	return superBase + 64 + uint64(i)*procRecSize
}

// allocNVM reserves a byte range of the checkpoint half of NVM
// (page-aligned) via the persisted bump cursor. The upper half belongs to
// the machine's NVM frame pool (shadow pages, NVM-placed segments).
func (s *superblock) allocNVM(bytes uint64) uint64 {
	bytes = (bytes + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	cur := s.storage.ReadU64(superBase + 16)
	if cur+bytes > mem.NVMBase+mem.NVMSize/2 {
		panic("kernel: out of NVM checkpoint space")
	}
	s.storage.WriteU64(superBase+16, cur+bytes)
	s.fence(superBase+16, 8)
	return cur
}

func (s *superblock) addProc(name string, headerAddr uint64) int {
	n := s.procCount()
	if n >= maxProcRecs {
		panic("kernel: superblock full")
	}
	rec := s.recAddr(n)
	var nameBuf [procNameLen]byte
	copy(nameBuf[:], name)
	s.storage.Write(rec, nameBuf[:])
	s.storage.WriteU64(rec+procNameLen, headerAddr)
	s.fence(rec, 56)
	s.storage.WriteU64(superBase+8, uint64(n+1))
	s.fence(superBase+8, 8)
	return n
}

func (s *superblock) findProc(name string) (headerAddr uint64, ok bool) {
	var nameBuf [procNameLen]byte
	for i := 0; i < s.procCount(); i++ {
		rec := s.recAddr(i)
		s.storage.Read(rec, nameBuf[:])
		if cstr(nameBuf[:]) == name {
			return s.storage.ReadU64(rec + procNameLen), true
		}
	}
	return 0, false
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
