package kernel

import (
	"fmt"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/vm"
	"prosper/internal/workload"
)

// Virtual address-space layout for every process.
const (
	heapBase     = uint64(0x1000_0000)
	stackTopBase = uint64(0x7f00_0000_0000)
	stackSpacing = uint64(64 << 20) // gap between thread stacks
)

// ProcessConfig describes a process to spawn.
type ProcessConfig struct {
	Name string

	// StackMech builds the per-thread stack persistence mechanism
	// (nil: no stack persistence).
	StackMech persist.Factory
	// HeapMech builds the process-wide heap persistence mechanism
	// (nil: no heap persistence).
	HeapMech persist.Factory

	StackReserve uint64 // per-thread stack reserve (default 1 MiB)
	HeapSize     uint64 // heap arena size (default 64 MiB)

	// CheckpointInterval enables periodic process checkpoints (0: none).
	CheckpointInterval sim.Time

	// PremapHeap maps the whole heap arena at spawn instead of demand
	// paging it, modelling the warmed-up steady state the paper measures
	// (its benchmarks run for a minute before measurement starts).
	PremapHeap bool

	Seed uint64
}

func (c ProcessConfig) withDefaults() ProcessConfig {
	if c.Name == "" {
		c.Name = "proc"
	}
	if c.StackReserve == 0 {
		c.StackReserve = 1 << 20
	}
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadPaused
	threadDone
)

// Thread is one schedulable execution context.
type Thread struct {
	TID  int
	Proc *Process
	Prog workload.Program

	Ctx      workload.Context
	StackSeg persist.Segment
	mech     persist.Mechanism
	regArea  uint64 // NVM register-save area (two page-sized slots)

	// ckptEpoch counts this thread's completed register+stack persists.
	// It advances in lockstep with the stack mechanism's durable commit
	// sequence and selects which register slot the next save targets;
	// threads that finish early stop persisting, so it can lag the
	// process-wide commit sequence.
	ckptEpoch uint64

	home  *coreState
	state threadState

	needYield      bool
	pauseRequested bool
	pauseWaiter    func()

	// User-mode accounting (Fig 12's user-space IPC).
	UserOps    uint64
	UserCycles uint64

	storeSeq uint64
	sp       uint64

	// Run-loop continuations, bound once at thread creation so the
	// per-op step/finish cycle allocates nothing: cs is the core the
	// thread currently occupies (set by scheduleNext), opStart the issue
	// cycle of the op in flight, storeBuf the reused store payload.
	cs       *coreState
	opStart  sim.Time
	stepFn   func()
	opDoneFn func()
	storeBuf []byte
}

// Mech exposes the thread's stack persistence mechanism.
func (t *Thread) Mech() persist.Mechanism { return t.mech }

// CkptEpoch returns the thread's completed checkpoint epoch. On a
// recovered process it is the epoch recovery restored the thread to,
// which the crash-sweep harness checks against the durable commit
// sequence.
func (t *Thread) CkptEpoch() uint64 { return t.ckptEpoch }

// SP returns the thread's last architectural stack pointer (tracing and
// the SP-awareness analyses read it).
func (t *Thread) SP() uint64 { return t.sp }

// EpochPause is one checkpoint epoch's pause decomposition: the measured
// stop-the-world pause and its per-cause cycle attribution. The causes
// sum exactly to Pause — the attribution register charges every cycle
// between quiesce start and commit completion to exactly one cause.
type EpochPause struct {
	Seq    uint64
	Pause  sim.Time
	Causes [persist.NumCauses]uint64
}

// Process is a persistent-capable process.
type Process struct {
	PID  int
	Name string
	Cfg  ProcessConfig

	AS      *vm.AddressSpace
	Threads []*Thread

	HeapSeg  persist.Segment
	heapMech persist.Mechanism

	kern       *Kernel
	headerAddr uint64
	ckptSeq    uint64
	ckptTicker *sim.Ticker

	checkpointing bool
	traceTrack    telemetry.Track // checkpoint-epoch lane (zero when disabled)

	// CommitHook, when set, fires inside every checkpoint's commit
	// callback, after the commit is durable and before the threads
	// resume: architectural and program state are exactly the committed
	// epoch's. It must not block or mutate simulation state.
	CommitHook func(p *Process)

	// Checkpoints completed and cumulative checkpoint statistics; their
	// cycle total is counter proc.ckpt_cycles.
	CheckpointCount uint64
	CheckpointBytes uint64
	StackCkptBytes  uint64

	// attrib is the stall-attribution register charged by the kernel's
	// checkpoint engine and the persistence mechanisms between epoch
	// quiesce and commit; EpochPauses records one entry per completed
	// checkpoint.
	attrib      *persist.Attrib
	EpochPauses []EpochPause

	Counters *stats.Counters
}

// Spawn creates a process with one thread per program and makes its
// threads runnable. An empty name defaults to "proc". Spawn panics on a
// process it could not track or recover: more threads than its header
// holds, a name already in the superblock or longer than its record, a
// superblock whose process count exceeds its capacity, or Prosper
// trackers on both the stack and the heap.
func (k *Kernel) Spawn(cfg ProcessConfig, progs ...workload.Program) *Process {
	cfg = cfg.withDefaults()
	if len(progs) == 0 || len(progs) > maxThreads {
		panic(fmt.Sprintf("kernel: Spawn needs 1 to %d programs, got %d", maxThreads, len(progs)))
	}
	if len(cfg.Name) > procNameLen {
		panic(fmt.Sprintf("kernel: process name %q is longer than %d bytes", cfg.Name, procNameLen))
	}
	_, dup, err := k.super.findProc(cfg.Name)
	check(err)
	if dup {
		panic(fmt.Sprintf("kernel: a process named %q already exists", cfg.Name))
	}
	checkTrackerUse(cfg)

	// NVM checkpoint areas: header page + heap areas + per-thread areas.
	headerAddr := k.super.allocNVM(mem.PageSize)
	h := procHeader{stackReserve: cfg.StackReserve, heapSize: cfg.HeapSize}
	if cfg.HeapMech != nil {
		h.heap = k.super.allocSegment(cfg.HeapSize, cfg.HeapSize+(1<<20))
	}
	for range progs {
		h.threads = append(h.threads, threadAreas{
			stack: k.super.allocSegment(cfg.StackReserve, cfg.StackReserve+(1<<18)),
			// Two register slots, alternated by checkpoint epoch: the
			// save for epoch E+1 must not overwrite the last committed
			// epoch's registers before E+1 commits (power can fail in
			// between).
			regArea: k.super.allocNVM(2 * mem.PageSize),
		})
	}
	p := k.build(cfg, headerAddr, h, progs, nil)
	k.Mach.Storage.Write(headerAddr, h.encode())
	k.Mach.PersistNVM(headerAddr, mem.PageSize)
	k.super.addProc(p.Name, headerAddr)
	k.start(p)
	return p
}

// build creates a process on the NVM areas its header names, one thread
// per program, and adds it to the kernel. Spawn passes freshly allocated
// areas and no register slots; RecoverProcess passes the header it read
// back and each thread's committed register slot, whose SP places the
// thread's stack (the PID that laid it out is not persisted).
func (k *Kernel) build(cfg ProcessConfig, headerAddr uint64, h procHeader, progs []workload.Program, regs []regSlot) *Process {
	p := &Process{
		PID:        k.nextPID,
		Name:       cfg.Name,
		Cfg:        cfg,
		AS:         vm.NewAddressSpace(k.Mach.DRAMFrames, k.Mach.NVMFrames),
		kern:       k,
		headerAddr: headerAddr,
		ckptSeq:    h.seq,
		attrib:     persist.NewAttrib(k.Eng),
		Counters:   stats.NewCounters(),
	}
	k.nextPID++

	heapInNVM := false
	if cfg.HeapMech != nil {
		p.heapMech = cfg.HeapMech()
		heapInNVM = p.heapMech.PlaceInNVM()
	}
	check(p.AS.AddVMA(&vm.VMA{
		Lo: heapBase, Hi: heapBase + cfg.HeapSize, Kind: vm.KindHeap,
		Writable: true, InNVM: heapInNVM, ThreadID: -1,
	}))
	// A recovered heap is mapped by its mechanism's recovery instead.
	if cfg.PremapHeap && regs == nil {
		p.AS.EnsureRange(heapBase, heapBase+cfg.HeapSize)
	}
	if p.heapMech != nil {
		p.HeapSeg = h.heap
		p.HeapSeg.Lo, p.HeapSeg.Hi, p.HeapSeg.Kind = heapBase, heapBase+cfg.HeapSize, vm.KindHeap
		p.attach(p.heapMech, p.HeapSeg)
	}
	for i, prog := range progs {
		var reg *regSlot
		if regs != nil {
			reg = &regs[i]
		}
		p.Threads = append(p.Threads, p.newThread(i, prog, h.threads[i], reg))
	}
	k.procs = append(k.procs, p)
	p.traceTrack = k.Trace.Track("ckpt:" + p.Name)
	return p
}

// attach binds a mechanism to its segment in the process's environment.
func (p *Process) attach(m persist.Mechanism, seg persist.Segment) {
	k := p.kern
	m.Attach(&persist.Env{Mach: k.Mach, AS: p.AS, Trackers: k.Trackers, Attrib: p.attrib}, seg)
}

// start makes every thread runnable and starts the periodic checkpoints.
func (k *Kernel) start(p *Process) {
	for _, t := range p.Threads {
		k.enqueue(t)
	}
	if p.Cfg.CheckpointInterval > 0 {
		p.ckptTicker = k.Eng.NewTicker(sim.CompKernel, p.Cfg.CheckpointInterval, func() { k.checkpointProcess(p, nil) })
	}
}

// checkTrackerUse panics when both the stack and the heap use a
// tracker-based mechanism (Prosper or its adaptive variant). The two
// would share each core's one tracker MSR range, where the last
// OnScheduleIn wins and the other segment goes untracked.
func checkTrackerUse(cfg ProcessConfig) {
	if usesTracker(cfg.StackMech) && usesTracker(cfg.HeapMech) {
		panic("kernel: stack and heap cannot both use a Prosper tracker")
	}
}

// usesTracker reports whether the factory builds a mechanism that
// programs the per-core Prosper tracker.
func usesTracker(f persist.Factory) bool {
	if f == nil {
		return false
	}
	switch f().(type) {
	case *persist.Prosper, *persist.AdaptiveProsper:
		return true
	}
	return false
}

// newThread lays out one thread's stack on its NVM areas, attaches its
// mechanism and starts its program. On recovery reg, its committed
// register slot, resumes the thread's SP, store sequence and checkpoint
// epoch and restores a checkpointable program; on spawn it is nil.
func (p *Process) newThread(i int, prog workload.Program, areas threadAreas, reg *regSlot) *Thread {
	k := p.kern
	cfg := p.Cfg
	t := &Thread{
		TID:     i,
		Proc:    p,
		Prog:    prog,
		sp:      stackTopBase - uint64(p.PID)*16*stackSpacing - uint64(i)*stackSpacing,
		home:    k.leastLoadedCore(),
		regArea: areas.regArea,
	}
	if reg != nil {
		t.sp, t.storeSeq, t.ckptEpoch = reg.sp, reg.storeSeq, reg.epoch
	}
	stackHi := (t.sp + stackSpacing - 1) / stackSpacing * stackSpacing
	stackLo := stackHi - cfg.StackReserve
	t.Ctx = workload.Context{
		StackHi:      stackHi,
		StackReserve: cfg.StackReserve,
		HeapLo:       heapBase,
		HeapSize:     cfg.HeapSize,
		Seed:         cfg.Seed + uint64(i)*7919,
	}
	t.bindOps(k)
	if cfg.StackMech != nil {
		t.mech = cfg.StackMech()
	} else {
		t.mech = persist.NewNone()()
	}
	check(p.AS.AddVMA(&vm.VMA{
		Lo: stackLo, Hi: stackHi, Kind: vm.KindStack,
		Writable: true, InNVM: t.mech.PlaceInNVM(), ThreadID: i,
	}))
	t.StackSeg = areas.stack
	t.StackSeg.Lo, t.StackSeg.Hi, t.StackSeg.Kind = stackLo, stackHi, vm.KindStack
	p.attach(t.mech, t.StackSeg)
	t.Prog.Start(t.Ctx)
	if c, ok := t.Prog.(workload.Checkpointable); ok && reg != nil && len(reg.snap) > 0 {
		c.Restore(reg.snap)
	}
	return t
}

// routeStore dispatches a store to the mechanism owning its segment,
// including inter-thread stack writes (a thread storing into another
// thread's stack range reaches that thread's mechanism). It returns the
// stall the owning mechanism imposes on the store pipeline.
func (p *Process) routeStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	if vaddr >= heapBase && vaddr < heapBase+p.Cfg.HeapSize {
		if p.heapMech != nil {
			return p.heapMech.OnStore(core, vaddr, paddr, size)
		}
		return 0
	}
	for _, t := range p.Threads {
		if vaddr >= t.StackSeg.Lo && vaddr < t.StackSeg.Hi {
			return t.mech.OnStore(core, vaddr, paddr, size)
		}
	}
	return 0
}

func (p *Process) heapScheduleIn(core *machine.Core, done func()) {
	if p.heapMech == nil {
		done()
		return
	}
	p.heapMech.OnScheduleIn(core, done)
}

func (p *Process) heapScheduleOut(core *machine.Core, done func()) {
	if p.heapMech == nil {
		done()
		return
	}
	p.heapMech.OnScheduleOut(core, done)
}

// procHeader is a process's checkpoint-area header, one NVM page that
// encode and readProcHeader alone lay out:
//
//	0    ckpt seq (committed; the checkpoint commit rewrites this word)
//	8    thread count
//	16   stack reserve
//	24   heap size
//	32   heap image base | 0
//	40   heap meta base
//	48   heap meta size
//	64+  per thread (64 bytes): stack image, stack meta, meta size, reg area
type procHeader struct {
	seq          uint64
	stackReserve uint64
	heapSize     uint64
	heap         persist.Segment // NVM areas only; ImageBase 0: no heap mechanism
	threads      []threadAreas
}

// threadAreas are one thread's NVM areas.
type threadAreas struct {
	stack   persist.Segment // NVM areas only
	regArea uint64          // two page-sized register slots
}

// maxThreads is the most thread records the header page holds.
const maxThreads = (mem.PageSize - 64) / 64

// encode returns the header page.
func (h procHeader) encode() []byte {
	buf := make([]byte, mem.PageSize)
	putU64(buf, 0, h.seq)
	putU64(buf, 8, uint64(len(h.threads)))
	putU64(buf, 16, h.stackReserve)
	putU64(buf, 24, h.heapSize)
	putU64(buf, 32, h.heap.ImageBase)
	putU64(buf, 40, h.heap.MetaBase)
	putU64(buf, 48, h.heap.MetaSize)
	for i, t := range h.threads {
		off := 64 + i*64
		putU64(buf, off, t.stack.ImageBase)
		putU64(buf, off+8, t.stack.MetaBase)
		putU64(buf, off+16, t.stack.MetaSize)
		putU64(buf, off+24, t.regArea)
	}
	return buf
}

// readProcHeader decodes the header at addr, reading only the records
// its thread count covers. It fails on a thread count the page cannot
// hold.
func readProcHeader(st *mem.Storage, addr uint64) (procHeader, error) {
	n := st.ReadU64(addr + 8)
	if n == 0 || n > maxThreads {
		return procHeader{}, fmt.Errorf("implausible thread count %d", n)
	}
	buf := make([]byte, 64+n*64)
	st.Read(addr, buf)
	h := procHeader{
		seq:          mustU64(buf, 0),
		stackReserve: mustU64(buf, 16),
		heapSize:     mustU64(buf, 24),
		heap:         persist.Segment{ImageBase: mustU64(buf, 32), MetaBase: mustU64(buf, 40), MetaSize: mustU64(buf, 48)},
		threads:      make([]threadAreas, n),
	}
	for i := range h.threads {
		off := 64 + i*64
		h.threads[i] = threadAreas{
			stack:   persist.Segment{ImageBase: mustU64(buf, off), MetaBase: mustU64(buf, off+8), MetaSize: mustU64(buf, off+16)},
			regArea: mustU64(buf, off+24),
		}
	}
	return h, nil
}

// Done reports whether all threads have finished.
func (p *Process) Done() bool {
	for _, t := range p.Threads {
		if t.state != threadDone {
			return false
		}
	}
	return true
}

// StopCheckpoints cancels the periodic checkpoint ticker.
func (p *Process) StopCheckpoints() {
	if p.ckptTicker != nil {
		p.ckptTicker.Stop()
		p.ckptTicker = nil
	}
}

// Shutdown stops tickers owned by the process (checkpoint ticker and any
// mechanism background threads), used when a run ends.
func (p *Process) Shutdown() {
	p.StopCheckpoints()
	type detacher interface{ Detach() }
	if d, ok := p.heapMech.(detacher); ok {
		d.Detach()
	}
	for _, t := range p.Threads {
		if d, ok := t.mech.(detacher); ok {
			d.Detach()
		}
		t.Prog.Close()
	}
}

// UserIPC aggregates user-mode instructions-per-cycle across threads.
func (p *Process) UserIPC() float64 {
	var ops, cycles uint64
	for _, t := range p.Threads {
		ops += t.UserOps
		cycles += t.UserCycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(ops) / float64(cycles)
}
