// Package prosper is the public facade of the Prosper reproduction: a
// hardware–OS co-designed checkpoint mechanism for program-stack
// persistence in hybrid DRAM+NVM memory systems (HPCA 2024).
//
// The facade wraps the full simulated system — machine (cores, caches,
// hybrid memory), kernel (processes, scheduler, checkpoint engine), the
// Prosper dirty tracker, and the baseline persistence mechanisms — behind
// a small API:
//
//	sys := prosper.NewSystem(prosper.SystemConfig{Cores: 2})
//	p := sys.Launch(prosper.ProcessSpec{
//	        Name:               "svc",
//	        Stack:              prosper.MechProsper,
//	        CheckpointInterval: 200 * prosper.Microsecond,
//	}, workloadProgram)
//	sys.Run(5 * prosper.Millisecond)
//	sys.Crash()                  // power failure: DRAM lost, NVM survives
//	sys2 := sys.Reboot()
//	sys2.Recover(spec, prog2)    // resume from the last checkpoint
//
// Deeper control (custom mechanisms, tracker parameters, raw machine
// access) is available through the internal packages re-exported fields.
package prosper

import (
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// Re-exported time units (cycles at the simulated 3 GHz clock).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time is a simulated duration/timestamp in cycles.
type Time = sim.Time

// Mechanism selects a persistence mechanism for a memory segment.
type Mechanism int

// Available mechanisms.
const (
	MechNone Mechanism = iota
	// MechProsper is the paper's contribution: DRAM-resident segment,
	// hardware sub-page dirty tracking, two-step checkpoint to NVM.
	MechProsper
	// MechDirtybit is the page-granularity baseline (LDT-style PTE
	// dirty bits).
	MechDirtybit
	// MechWriteProtect tracks via write-protection faults (SoftDirty).
	MechWriteProtect
	// MechRomulus keeps twin copies in NVM with hardware-logged stack
	// modifications.
	MechRomulus
	// MechSSP is sub-page shadow paging with a background consolidation
	// thread (10 µs default invocation interval).
	MechSSP
	// MechProsperAdaptive is Prosper with OS-driven dynamic tracking
	// granularity (the paper's stated future work): dense intervals
	// escalate the granularity, sparse intervals refine it.
	MechProsperAdaptive
)

func (m Mechanism) String() string {
	switch m {
	case MechProsper:
		return "prosper"
	case MechDirtybit:
		return "dirtybit"
	case MechWriteProtect:
		return "writeprotect"
	case MechRomulus:
		return "romulus"
	case MechSSP:
		return "ssp"
	case MechProsperAdaptive:
		return "prosper-adaptive"
	default:
		return "none"
	}
}

func (m Mechanism) factory(gran uint64, consolidation Time) persist.Factory {
	switch m {
	case MechProsper:
		return persist.NewProsper(persist.ProsperConfig{Granularity: gran})
	case MechDirtybit:
		return persist.NewDirtybit(persist.DirtybitConfig{})
	case MechWriteProtect:
		return persist.NewWriteProtect(persist.DirtybitConfig{})
	case MechRomulus:
		return persist.NewRomulus()
	case MechSSP:
		return persist.NewSSP(persist.SSPConfig{ConsolidationInterval: consolidation})
	case MechProsperAdaptive:
		return persist.NewAdaptiveProsper(persist.AdaptiveConfig{
			Prosper: persist.ProsperConfig{Granularity: gran},
			MinGran: gran,
		})
	default:
		return nil
	}
}

// SystemConfig sizes a simulated persistent system.
type SystemConfig struct {
	Cores int
	// TrackerTableSize, HWM, LWM override the Prosper tracker's lookup
	// table parameters (defaults: 16 / 24 / 8, the paper's settings).
	TrackerTableSize int
	TrackerHWM       int
	TrackerLWM       int
}

// System is one booted machine+kernel instance.
type System struct {
	cfg  SystemConfig
	kern *kernel.Kernel
	// image is the NVM that survived Crash, which Reboot boots on.
	image *mem.Storage
}

// NewSystem boots a fresh system with empty memory.
func NewSystem(cfg SystemConfig) *System {
	kcfg := kernel.Config{
		Machine: machine.Config{Cores: cfg.Cores},
		Quantum: 100 * Microsecond,
		TrackerCfg: prosper.Config{
			TableSize: cfg.TrackerTableSize,
			HWM:       cfg.TrackerHWM,
			LWM:       cfg.TrackerLWM,
		},
	}
	return &System{cfg: cfg, kern: kernel.New(kcfg)}
}

// Kernel exposes the underlying kernel for advanced use.
func (s *System) Kernel() *kernel.Kernel { return s.kern }

// Now returns the current simulated time.
func (s *System) Now() Time { return s.kern.Eng.Now() }

// Run advances the simulation by d.
func (s *System) Run(d Time) { s.kern.RunFor(d) }

// RunUntilDone runs until all processes finish or the deadline elapses.
func (s *System) RunUntilDone(deadline Time) bool { return s.kern.RunUntilDone(deadline) }

// Crash models a power failure: caches and DRAM are lost; NVM keeps only
// what reached the persistence domain. After Crash, use Reboot to
// construct the successor system.
func (s *System) Crash() { s.image = s.kern.Mach.CrashImage() }

// Reboot builds a fresh system over the NVM contents that survived
// Crash (or that a power failure now would leave, if Crash was not
// called).
func (s *System) Reboot() *System {
	if s.image == nil {
		s.Crash()
	}
	kcfg := kernel.Config{
		Machine: machine.Config{Cores: s.cfg.Cores, Storage: s.image},
		Quantum: 100 * Microsecond,
		TrackerCfg: prosper.Config{
			TableSize: s.cfg.TrackerTableSize,
			HWM:       s.cfg.TrackerHWM,
			LWM:       s.cfg.TrackerLWM,
		},
	}
	return &System{cfg: s.cfg, kern: kernel.New(kcfg)}
}

// ProcessSpec describes a process to launch or recover.
type ProcessSpec struct {
	Name string
	// Stack selects the per-thread stack persistence mechanism; Heap the
	// process-wide heap mechanism.
	Stack Mechanism
	Heap  Mechanism
	// Granularity is Prosper's tracking granularity in bytes (default 8).
	Granularity uint64
	// SSPConsolidation is the SSP background-thread invocation interval
	// (default 10 µs).
	SSPConsolidation Time
	// CheckpointInterval enables periodic checkpoints when non-zero.
	CheckpointInterval Time
	// StackReserve / HeapSize size the segments (defaults 1 MiB / 64 MiB).
	StackReserve uint64
	HeapSize     uint64
	Seed         uint64
}

func (spec ProcessSpec) kernelConfig() kernel.ProcessConfig {
	cons := spec.SSPConsolidation
	if cons == 0 {
		cons = 10 * Microsecond
	}
	return kernel.ProcessConfig{
		Name:               spec.Name,
		StackMech:          spec.Stack.factory(spec.Granularity, cons),
		HeapMech:           spec.Heap.factory(spec.Granularity, cons),
		StackReserve:       spec.StackReserve,
		HeapSize:           spec.HeapSize,
		CheckpointInterval: spec.CheckpointInterval,
		Seed:               spec.Seed,
	}
}

// Process is a handle on a launched or recovered process.
type Process struct {
	inner *kernel.Process
}

// Launch spawns a process running one thread per workload.
func (s *System) Launch(spec ProcessSpec, workloads ...Workload) *Process {
	progs := make([]workload.Program, len(workloads))
	for i, w := range workloads {
		progs[i] = w
	}
	return &Process{inner: s.kern.Spawn(spec.kernelConfig(), progs...)}
}

// Recover rebuilds a crashed process from its NVM checkpoint area and
// resumes it; the spec must match the original launch, and one fresh
// workload per original thread must be supplied. It blocks (in simulated
// time) until recovery completes.
func (s *System) Recover(spec ProcessSpec, workloads ...Workload) (*Process, error) {
	progs := make([]workload.Program, len(workloads))
	for i, w := range workloads {
		progs[i] = w
	}
	p, err := s.kern.RecoverProcess(spec.kernelConfig(), progs)
	if err != nil {
		return nil, err
	}
	return &Process{inner: p}, nil
}

// Checkpoint takes one synchronous checkpoint of the process.
func (p *Process) Checkpoint(s *System) {
	done := false
	p.inner.Checkpoint(func() { done = true })
	s.kern.Eng.RunWhile(func() bool { return !done })
}

// Done reports whether every thread has finished.
func (p *Process) Done() bool { return p.inner.Done() }

// Checkpoints returns how many checkpoints have committed.
func (p *Process) Checkpoints() uint64 { return p.inner.CheckpointCount }

// CheckpointedBytes returns the cumulative persisted payload.
func (p *Process) CheckpointedBytes() uint64 { return p.inner.CheckpointBytes }

// UserIPC returns the process's aggregate user-mode IPC.
func (p *Process) UserIPC() float64 { return p.inner.UserIPC() }

// Shutdown stops the process's tickers and generators (end of run).
func (p *Process) Shutdown() { p.inner.Shutdown() }

// Inner exposes the kernel-level process for advanced use.
func (p *Process) Inner() *kernel.Process { return p.inner }

// Workload is a runnable instruction stream (see the workloads below and
// internal/workload for the full set).
type Workload = workload.Program

// NewCounterWorkload returns a finite, checkpoint-restorable counter
// workload (the quickstart and crash demos use it).
func NewCounterWorkload(iterations int) *workload.CounterProgram {
	return workload.NewCounter(iterations)
}

// Workload constructors for the paper's benchmarks.

// NewGapbsPR models PageRank from GAPBS (stack-op heavy).
func NewGapbsPR() Workload { return workload.NewApp(workload.GapbsPR()) }

// NewG500SSSP models SSSP from Graph500.
func NewG500SSSP() Workload { return workload.NewApp(workload.G500SSSP()) }

// NewYcsbMem models Memcached under YCSB (call-churn heavy).
func NewYcsbMem() Workload { return workload.NewApp(workload.YcsbMem()) }

// NewRandomWorkload / NewStreamWorkload / NewSparseWorkload /
// NewQuicksortWorkload / NewRecursiveWorkload construct the Table III
// micro-benchmarks.
func NewRandomWorkload() Workload { return workload.NewRandom(workload.MicroParams{}) }

// NewStreamWorkload writes the whole stack array sequentially.
func NewStreamWorkload() Workload { return workload.NewStream(workload.MicroParams{}) }

// NewSparseWorkload dirties 4 bytes per stack page.
func NewSparseWorkload() Workload { return workload.NewSparse(workload.MicroParams{}) }

// NewQuicksortWorkload sorts a heap array with real recursion.
func NewQuicksortWorkload(elems int) Workload { return workload.NewQuicksort(elems) }

// NewRecursiveWorkload recurses to the given depth repeatedly.
func NewRecursiveWorkload(depth int) Workload { return workload.NewRecursive(depth) }
