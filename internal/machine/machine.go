// Package machine assembles the simulated hardware: cores with TLBs and
// store buffers in front of the cache hierarchy, the hybrid DRAM+NVM
// memory system, and timed physical-memory copy engines. The kernel
// package drives cores by binding address spaces and instruction streams
// to them; machine knows nothing about processes.
package machine

import (
	"prosper/internal/cache"
	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
)

// Fixed machine parameters (Table II) that no experiment varies.
const (
	TLBEntries      = 64             // entries per core TLB
	StoreBuffer     = 32             // store-buffer entries per core
	PageFaultCycles = sim.Time(3000) // kernel entry/exit + handler cost per fault (~1 µs)
	CopyWindow      = 8              // outstanding lines per physical copy engine
)

// Config sizes the machine. Zero fields take the defaults of Table II.
type Config struct {
	Cores int

	// Storage, when non-nil, backs the machine with an existing
	// functional store — the post-crash reboot path, which passes a
	// CrashImage: the surviving NVM content seeds the new machine's
	// persistence domain as already-durable, while the new machine
	// starts with cold caches and TLBs.
	Storage *mem.Storage

	// ADR enables asynchronous-DRAM-refresh-style flush-on-fail
	// hardware in the NVM persistence domain: writes already admitted
	// to the device drain to durable media on power loss. The default
	// (false) models the harsher no-ADR domain, where only writes whose
	// device latency completed before the failure survive.
	ADR bool
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	return c
}

// Machine is one simulated host.
type Machine struct {
	Cfg     Config
	Eng     *sim.Engine
	Storage *mem.Storage
	Domain  *mem.Domain
	Ctl     *mem.Controller
	Hier    *cache.Hierarchy
	Cores   []*Core

	DRAMFrames *mem.FrameAllocator
	NVMFrames  *mem.FrameAllocator

	// Free lists of pooled continuation records for the physical
	// copy/write/read engines; their callbacks are bound once at record
	// birth.
	copyFree []*copyOp
	fanFree  []*fanOp

	Counters *stats.Counters
}

// New builds a machine with the paper's memory system.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	ctl := mem.NewController(eng)
	storage := cfg.Storage
	if storage == nil {
		storage = mem.NewStorage()
	}
	m := &Machine{
		Cfg:     cfg,
		Eng:     eng,
		Storage: storage,
		Domain:  mem.NewDomain(storage, cfg.ADR),
		Ctl:     ctl,
		Hier:    cache.NewHierarchy(eng, cfg.Cores, ctl),
		// DRAM frames cover the whole device. The NVM frame pool covers
		// only the upper half: the lower half is reserved for the
		// kernel's checkpoint areas (superblock-managed; see
		// internal/kernel), so page placement and checkpoint images can
		// never collide.
		DRAMFrames: mem.NewFrameAllocator(mem.DRAMBase, mem.DRAMSize),
		NVMFrames:  mem.NewFrameAllocator(mem.NVMBase+mem.NVMSize/2, mem.NVMSize/2),
		Counters:   stats.NewCounters(),
	}
	ctl.NVM.SetPersistSink(m.Domain)
	for i := 0; i < cfg.Cores; i++ {
		m.Cores = append(m.Cores, newCore(m, i))
	}
	return m
}

// AttachJourneys wires a journey recorder through every component on the
// access path: cores (issue/TLB/store-buffer spans), all three cache
// levels, and both memory devices. Call once right after New, before any
// traffic; a nil recorder is a no-op (tracing off).
func (m *Machine) AttachJourneys(r *journey.Recorder) {
	if r == nil {
		return
	}
	for _, c := range m.Cores {
		c.journeys = r
	}
	for _, l1 := range m.Hier.L1D {
		l1.AttachJourneys(r, journey.StageL1)
	}
	for _, l2 := range m.Hier.L2 {
		l2.AttachJourneys(r, journey.StageL2)
	}
	m.Hier.L3.AttachJourneys(r, journey.StageL3)
	m.Ctl.DRAM.AttachJourneys(r, false)
	m.Ctl.NVM.AttachJourneys(r, true)
}

// CrashImage models a power failure at this instant: it returns the
// Storage the failure leaves behind, without disturbing the running
// machine. All caches and DRAM contents are lost; NVM holds only writes
// whose timed device access had completed (plus, in ADR mode, writes
// already admitted to the device), so functional-only NVM updates that
// never went through the controller are lost too. Handing the image to
// a fresh Machine (via Config.Storage) boots the post-crash survivor;
// the crashed machine's pending events are simply never run again.
func (m *Machine) CrashImage() *mem.Storage {
	return m.Domain.CrashImage()
}

// PersistNVM functionally promotes [addr, addr+size) to the durable NVM
// shadow with no timing cost; see mem.Domain.Persist for when this is
// legitimate (tiny synchronously-fenced kernel metadata only).
func (m *Machine) PersistNVM(addr, size uint64) {
	m.Domain.Persist(addr, size)
}

// copyOp is one in-flight CopyPhys: a windowed pipeline of line reads
// each followed by a line write, with the line index threaded through the
// completion tokens instead of captured closures.
type copyOp struct {
	m                *Machine
	srcLine, dstLine uint64
	lines            int
	window           int
	issued           int
	completed        int
	inFlight         int
	persistBase      uint64
	persistLen       uint64
	done             sim.Done

	// srcDoneFn/dstDoneFn are op.srcDone/op.dstDone, bound once so a
	// per-line token binds the line index without allocating.
	srcDoneFn, dstDoneFn func(uint64)
}

func (m *Machine) allocCopy() *copyOp {
	if n := len(m.copyFree); n > 0 {
		op := m.copyFree[n-1]
		m.copyFree = m.copyFree[:n-1]
		return op
	}
	op := &copyOp{m: m}
	op.srcDoneFn, op.dstDoneFn = op.srcDone, op.dstDone
	return op
}

func (m *Machine) freeCopy(op *copyOp) {
	op.done = sim.Done{}
	m.copyFree = append(m.copyFree, op)
}

func (op *copyOp) pump() {
	for op.inFlight < op.window && op.issued < op.lines {
		i := uint64(op.issued)
		op.issued++
		op.inFlight++
		op.m.Ctl.Access(false, op.srcLine+i*mem.LineSize, sim.Bind(sim.CompPersist, op.srcDoneFn, i))
	}
}

func (op *copyOp) srcDone(i uint64) {
	op.m.Ctl.Access(true, op.dstLine+i*mem.LineSize, sim.Bind(sim.CompPersist, op.dstDoneFn, i))
}

func (op *copyOp) dstDone(uint64) {
	op.inFlight--
	op.completed++
	if op.completed == op.lines {
		m := op.m
		// The line count is derived from the source alignment; when src
		// and dst straddle lines differently the last destination line
		// gets no timed write of its own, so promote the exact copied
		// range now that the engine is done — mid-copy crashes still
		// tear at line boundaries.
		m.Domain.Persist(op.persistBase, op.persistLen)
		done := op.done
		m.freeCopy(op)
		done.Run()
		return
	}
	op.pump()
}

// CopyPhys performs a timed, pipelined physical-memory copy of n bytes
// from src to dst at cache-line granularity, bypassing the caches (a
// streaming kernel copy with non-temporal semantics). The functional copy
// happens immediately; done fires when the last line write completes at
// the destination device — for NVM destinations this is the persistence
// point.
func (m *Machine) CopyPhys(dst, src uint64, n int, done func()) {
	var tok sim.Done
	if done != nil {
		tok = sim.Thunk(sim.CompPersist, done)
	}
	m.CopyPhysTok(dst, src, n, tok)
}

// CopyPhysTok is CopyPhys with a completion token instead of a closure,
// for callers that bind their continuation once and reuse it.
func (m *Machine) CopyPhysTok(dst, src uint64, n int, done sim.Done) {
	if n <= 0 {
		if done.Valid() {
			m.Eng.ScheduleDone(0, done)
		}
		return
	}
	m.Storage.Copy(dst, src, n)
	m.Counters.Add("machine.copy_bytes", uint64(n))

	op := m.allocCopy()
	op.srcLine = mem.LineOf(src)
	op.dstLine = mem.LineOf(dst)
	op.lines = mem.LinesSpanned(src, n)
	op.window = CopyWindow
	op.issued, op.completed, op.inFlight = 0, 0, 0
	op.persistBase, op.persistLen = dst, uint64(n)
	op.done = done
	op.pump()
}

// fanOp joins a fan-out of line accesses back into one completion; one
// record (and one bound method value, at birth) replaces the per-line
// closures WritePhys/ReadPhys used to allocate.
type fanOp struct {
	m         *Machine
	remaining int
	done      sim.Done

	lineDoneTok sim.Done
}

func (m *Machine) allocFan() *fanOp {
	if n := len(m.fanFree); n > 0 {
		f := m.fanFree[n-1]
		m.fanFree = m.fanFree[:n-1]
		return f
	}
	f := &fanOp{m: m}
	f.lineDoneTok = sim.Thunk(sim.CompPersist, f.lineDone)
	return f
}

func (m *Machine) freeFan(f *fanOp) {
	f.done = sim.Done{}
	m.fanFree = append(m.fanFree, f)
}

func (f *fanOp) lineDone() {
	f.remaining--
	if f.remaining != 0 {
		return
	}
	m := f.m
	done := f.done
	m.freeFan(f)
	done.Run()
}

// WritePhys performs a timed write of data to physical addr through the
// memory controller (bypassing caches), updating functional storage
// immediately. done fires at device completion.
func (m *Machine) WritePhys(addr uint64, data []byte, done func()) {
	var tok sim.Done
	if done != nil {
		tok = sim.Thunk(sim.CompPersist, done)
	}
	m.WritePhysTok(addr, data, tok)
}

// WritePhysTok is WritePhys with a completion token instead of a
// closure; see CopyPhysTok.
func (m *Machine) WritePhysTok(addr uint64, data []byte, done sim.Done) {
	m.Storage.Write(addr, data)
	m.fanOut(true, addr, len(data), done)
}

// ReadPhys performs a timed read of n bytes at physical addr through the
// memory controller; done fires at device completion. Like core loads it
// is timing-only: the bytes stay in Storage for whoever needs them.
func (m *Machine) ReadPhys(addr uint64, n int, done func()) {
	var tok sim.Done
	if done != nil {
		tok = sim.Thunk(sim.CompPersist, done)
	}
	m.fanOut(false, addr, n, tok)
}

// fanOut issues one controller access per line of [addr, addr+n) and
// runs done when the last completes (at +0 cycles when n is zero).
func (m *Machine) fanOut(write bool, addr uint64, n int, done sim.Done) {
	lines := mem.LinesSpanned(addr, n)
	if lines == 0 {
		if done.Valid() {
			m.Eng.ScheduleDone(0, done)
		}
		return
	}
	f := m.allocFan()
	f.remaining = lines
	f.done = done
	for i := 0; i < lines; i++ {
		m.Ctl.Access(write, mem.LineOf(addr)+uint64(i)*mem.LineSize, f.lineDoneTok)
	}
}
