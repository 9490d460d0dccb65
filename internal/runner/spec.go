// Package runner turns experiment configurations into declarative run
// plans and executes them on a bounded worker pool.
//
// A Spec is one independent simulation run: the workload, the
// persistence mechanisms under test, the machine shape, and the scaled
// measurement window. A Plan is a named list of Specs; an Executor fans
// a plan's specs out across workers (default GOMAXPROCS), each worker
// building its own kernel and machine so nothing is shared between
// runs. Results come back as RunStats in plan order, so rendered output
// is byte-identical regardless of the worker count: determinism is
// per-run (every spec owns a private sim.Engine), and the plan order —
// not completion order — defines the output order.
package runner

import (
	"fmt"

	"prosper/internal/hostprof"
	"prosper/internal/journey"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// Spec describes one independent measured run of the standard
// single-process workload. It is a value type: copying a Spec is cheap
// and a Spec never owns live simulation state.
type Spec struct {
	// Name is the benchmark/process name, recorded as RunStats.Name.
	Name string
	// Label is the display name used by progress reporting; empty means
	// Name. Plans give each spec a distinct label (e.g. bench/mechanism)
	// while several specs share one benchmark Name.
	Label string
	// Prog constructs one workload program per thread. It is called from
	// the executor's worker goroutine, so it must not touch shared
	// mutable state (all constructors in internal/workload are pure).
	Prog func() workload.Program
	// StackMech/HeapMech are the persistence mechanisms under test; nil
	// means none (the no-persistence baseline).
	StackMech persist.Factory
	HeapMech  persist.Factory
	// Checkpoint enables periodic checkpoints every Interval.
	Checkpoint bool
	Cores      int
	Threads    int
	// Tracker configures the per-core Prosper dirty trackers (the Fig 13
	// HWM/LWM sweeps and the allocation-policy ablation); the zero value
	// is the default configuration.
	Tracker prosper.Config

	// Interval is the consistency/checkpoint interval; Checkpoints is
	// how many intervals the measured window covers; Warmup runs before
	// measurement starts.
	Interval    sim.Time
	Checkpoints int
	Warmup      sim.Time

	// StackReserve and HeapSize size the process segments.
	StackReserve uint64
	HeapSize     uint64
	Seed         uint64

	// Tracer, when non-nil, records this run's sim-time telemetry (one
	// Perfetto process lane per run: warmup/measured spans, checkpoint
	// epochs, tracker events, occupancy samples). Every spec needs its
	// own Tracer — runs never share one — typically allocated in plan
	// order from a telemetry.Trace so serialized output is identical for
	// any worker count.
	Tracer *telemetry.Tracer
	// SampleEvery is the telemetry sampling cadence in cycles
	// (0: the kernel's 10 µs default).
	SampleEvery sim.Time

	// Profile enables per-component event-owner accounting on the run's
	// engine (sim.Profile with the hostprof clock). The resulting
	// EventCounts are deterministic; EventNanos is host wall time and
	// informational. Off by default: the unprofiled dispatch path is the
	// one the allocation ratchet pins.
	Profile bool

	// Journey, when non-nil, samples end-to-end access journeys during
	// the run (internal/journey). Like Tracer, every spec needs its own
	// Recorder, allocated in plan order from a journey.Journal so the
	// serialized journal is identical for any worker count. When both
	// Journey and Tracer are set, the finished journeys are also exported
	// onto the tracer as per-stage span lanes with flow links.
	Journey *journey.Recorder
}

// DisplayLabel returns Label, falling back to Name.
func (sp Spec) DisplayLabel() string {
	if sp.Label != "" {
		return sp.Label
	}
	return sp.Name
}

// withDefaults fills zero fields with the same standard scaled-down
// configuration experiments.DefaultScale uses, so a bare Spec is
// runnable in tests. (Warmup deliberately has no default: zero warmup
// is a valid configuration.)
func (sp Spec) withDefaults() Spec {
	if sp.Cores <= 0 {
		sp.Cores = 1
	}
	if sp.Threads <= 0 {
		sp.Threads = 1
	}
	if sp.Interval == 0 {
		sp.Interval = 200 * sim.Microsecond
	}
	if sp.Checkpoints == 0 {
		sp.Checkpoints = 10
	}
	if sp.StackReserve == 0 {
		sp.StackReserve = 1 << 20
	}
	if sp.HeapSize == 0 {
		sp.HeapSize = 64 << 20
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// RunStats is the outcome of one measured run.
type RunStats struct {
	Name      string
	Mechanism string

	UserOps    uint64
	UserCycles uint64

	Checkpoints     uint64
	CheckpointBytes uint64
	StackCkptBytes  uint64
	StackCkptCycles uint64
	StackCkptMeta   uint64
	HeapCkptBytes   uint64
	HeapCkptCycles  uint64

	TrackerBitmapLoads  uint64
	TrackerBitmapStores uint64
	TrackerSOIs         uint64
	TrackerUpdates      uint64
	TrackerWritebacks   uint64

	CtxSwitches  uint64
	CtxSwitchIn  uint64
	CtxSwitchOut uint64

	WriteFaults uint64 // write-permission faults (WriteProtect tracking)

	// Checkpoint-pause decomposition over the measured window: the
	// stop-the-world pause distribution (log2-bucketed quantiles, so the
	// values are integral and platform-independent) and the per-cause
	// stall attribution, whose entries sum exactly to PauseTotal.
	PauseCount  uint64
	PauseTotal  uint64
	PauseMax    uint64
	PauseP50    uint64
	PauseP95    uint64
	PauseP99    uint64
	PauseCauses [persist.NumCauses]uint64

	Elapsed sim.Time // measured window duration (warmup excluded)
	SimEnd  sim.Time // absolute simulated time when the run finished

	// EventsFired counts simulation events the engine dispatched over the
	// whole run (warmup included). It is deterministic for a given binary
	// but NOT part of the behavioral contract: optimizations that batch or
	// elide events legitimately change it without changing any simulated
	// cycle, so it belongs in throughput tracking, never in the
	// deterministic compare set.
	EventsFired uint64

	// EventCounts/EventNanos decompose the run's dispatched events by
	// owning component (only populated when Spec.Profile is set).
	// EventCounts is deterministic and sums exactly to EventsFired;
	// EventNanos is batched host wall time, informational only.
	EventCounts [sim.NumComponents]uint64
	EventNanos  [sim.NumComponents]int64
}

// IPC returns the user-mode instructions-per-cycle of the run.
func (r RunStats) IPC() float64 {
	if r.UserCycles == 0 {
		return 0
	}
	return float64(r.UserOps) / float64(r.UserCycles)
}

// MeanStackCkptBytes returns the average per-checkpoint stack copy size.
func (r RunStats) MeanStackCkptBytes() float64 {
	if r.Checkpoints == 0 {
		return 0
	}
	return float64(r.StackCkptBytes) / float64(r.Checkpoints)
}

// MeanStackCkptCycles returns the average stack checkpoint duration.
func (r RunStats) MeanStackCkptCycles() float64 {
	if r.Checkpoints == 0 {
		return 0
	}
	return float64(r.StackCkptCycles) / float64(r.Checkpoints)
}

// boot builds the spec's private kernel and machine and, when requested,
// enables event profiling on the fresh engine.
func (sp Spec) boot() (*kernel.Kernel, *sim.Profile) {
	k := kernel.New(kernel.Config{
		Machine:     machine.Config{Cores: sp.Cores},
		Quantum:     sp.Interval / 2,
		TrackerCfg:  sp.Tracker,
		Tracer:      sp.Tracer,
		SampleEvery: sp.SampleEvery,
		Journey:     sp.Journey,
	})
	var prof *sim.Profile
	if sp.Profile {
		// kernel.New schedules events but fires none, so enabling here
		// keeps the per-component counts summing exactly to Eng.Fired().
		prof = k.Eng.EnableProfiling(hostprof.Nanotime)
	}
	return k, prof
}

// spawn creates the spec's measured process on k.
func (sp Spec) spawn(k *kernel.Kernel) *kernel.Process {
	pc := kernel.ProcessConfig{
		Name:         sp.Name,
		StackMech:    sp.StackMech,
		HeapMech:     sp.HeapMech,
		StackReserve: sp.StackReserve,
		HeapSize:     sp.HeapSize,
		PremapHeap:   true, // measure warmed-up steady state (paper warms 1 min)
		Seed:         sp.Seed,
	}
	if sp.Checkpoint {
		pc.CheckpointInterval = sp.Interval
	}
	progs := make([]workload.Program, sp.Threads)
	for i := range progs {
		progs[i] = sp.Prog()
	}
	return k.Spawn(pc, progs...)
}

// Run executes the spec on a freshly built kernel and machine and
// collects stats over the measured window. Every call builds a private
// sim.Engine, so concurrent Runs of distinct Spec values never share
// state and each run's results depend only on the spec itself.
func (sp Spec) Run() RunStats {
	sp = sp.withDefaults()
	k, prof := sp.boot()
	runTrack := sp.Tracer.Track("run")
	runSpan := sp.Tracer.Begin(runTrack, "run:"+sp.DisplayLabel())
	p := sp.spawn(k)
	defer p.Shutdown()

	warmupSpan := sp.Tracer.Begin(runTrack, "warmup")
	k.RunFor(sp.Warmup)
	warmupSpan.End()
	// Baselines: every counter the measured window subtracts from.
	var opsBase, cyclesBase uint64
	for _, t := range p.Threads {
		opsBase += t.UserOps
		cyclesBase += t.UserCycles
	}
	ckptBase, ckptBytesBase := p.CheckpointCount, p.CheckpointBytes
	stackBytesBase := p.Counters.Get("proc.stack_ckpt_bytes")
	stackCyclesBase := p.Counters.Get("proc.stack_ckpt_cycles")
	stackMetaBase := p.Counters.Get("proc.stack_ckpt_meta")
	heapBytesBase := p.Counters.Get("proc.heap_ckpt_bytes")
	heapCyclesBase := p.Counters.Get("proc.heap_ckpt_cycles")
	trBase := trackerSnapshot(k)
	wfBase := uint64(p.AS.WriteFaults())
	start := k.Eng.Now()

	measured := sp.Tracer.Begin(runTrack, "measured")
	k.RunFor(sp.Interval * sim.Time(sp.Checkpoints))
	measured.End()

	res := RunStats{Name: sp.Name, Elapsed: k.Eng.Now() - start}
	for _, t := range p.Threads {
		res.UserOps += t.UserOps
		res.UserCycles += t.UserCycles
	}
	res.UserOps -= opsBase
	res.UserCycles -= cyclesBase
	res.Checkpoints = p.CheckpointCount - ckptBase
	res.CheckpointBytes = p.CheckpointBytes - ckptBytesBase
	res.StackCkptBytes = p.Counters.Get("proc.stack_ckpt_bytes") - stackBytesBase
	res.StackCkptCycles = p.Counters.Get("proc.stack_ckpt_cycles") - stackCyclesBase
	res.StackCkptMeta = p.Counters.Get("proc.stack_ckpt_meta") - stackMetaBase
	res.HeapCkptBytes = p.Counters.Get("proc.heap_ckpt_bytes") - heapBytesBase
	res.HeapCkptCycles = p.Counters.Get("proc.heap_ckpt_cycles") - heapCyclesBase
	trEnd := trackerSnapshot(k)
	res.TrackerBitmapLoads = trEnd.loads - trBase.loads
	res.TrackerBitmapStores = trEnd.stores - trBase.stores
	res.TrackerSOIs = trEnd.sois - trBase.sois
	res.TrackerWritebacks = trEnd.writebacks - trBase.writebacks
	res.TrackerUpdates = res.TrackerSOIs // one table update per SOI granule (approx.)
	res.WriteFaults = uint64(p.AS.WriteFaults()) - wfBase
	// Pause decomposition: only epochs committed inside the measured
	// window (sequence numbers past the warmup-end count).
	pauseHist := stats.NewHistogram()
	for _, ep := range p.EpochPauses {
		if ep.Seq <= ckptBase {
			continue
		}
		pauseHist.Observe(uint64(ep.Pause))
		for c, v := range ep.Causes {
			res.PauseCauses[c] += v
		}
	}
	res.PauseCount = pauseHist.Count()
	res.PauseTotal = pauseHist.Sum()
	res.PauseMax = pauseHist.Max()
	res.PauseP50 = pauseHist.Quantile(0.50)
	res.PauseP95 = pauseHist.Quantile(0.95)
	res.PauseP99 = pauseHist.Quantile(0.99)
	res.CtxSwitches = k.Counters.Get("kernel.context_switches")
	res.CtxSwitchIn = k.Counters.Get("kernel.ctxswitch_in_cycles")
	res.CtxSwitchOut = k.Counters.Get("kernel.ctxswitch_out_cycles")
	res.SimEnd = k.Eng.Now()
	res.EventsFired = k.Eng.Fired()
	if prof != nil {
		snap := prof.Snapshot()
		res.EventCounts = snap.Counts
		res.EventNanos = snap.Nanos
	}
	runSpan.End(
		telemetry.U("user_ops", res.UserOps),
		telemetry.U("checkpoints", res.Checkpoints),
		telemetry.U("checkpoint_bytes", res.CheckpointBytes),
	)
	journey.ExportTrace(sp.Journey, sp.Tracer)
	return res
}

// opWindowCap bounds OpWindow's simulated time, warmup included.
const opWindowCap = 60 * sim.Millisecond

// OpWindow measures the user cycles the spec's first thread spends on a
// fixed window of its deterministic op stream: ops [warmupOps,
// warmupOps+measureOps). Specs that differ only in their mechanisms
// execute the identical op sequence, so the cycle delta isolates the
// mechanisms' cost exactly: Figure 12's user-IPC method without
// time-window sampling noise. The spec's Warmup and Checkpoints are
// unused, and the run attaches no tracer, profiler or journey recorder.
// OpWindow panics, naming the spec, if the thread does not reach either
// end of the window within opWindowCap: a short window would compare
// different op ranges.
func (sp Spec) OpWindow(warmupOps, measureOps uint64) (ops, cycles uint64) {
	sp = sp.withDefaults()
	sp.Tracer, sp.Journey, sp.Profile = nil, nil, false
	k, _ := sp.boot()
	p := sp.spawn(k)
	defer p.Shutdown()
	th := p.Threads[0]

	deadline := k.Eng.Now() + opWindowCap
	runTo := func(target uint64) {
		k.Eng.RunWhile(func() bool { return th.UserOps < target && k.Eng.Now() < deadline })
		if th.UserOps < target {
			panic(fmt.Sprintf("runner: %s: op window reached %d of %d ops by cycle %d",
				sp.DisplayLabel(), th.UserOps, target, k.Eng.Now()))
		}
	}
	runTo(warmupOps)
	startOps, startCycles := th.UserOps, th.UserCycles
	runTo(startOps + measureOps)
	return th.UserOps - startOps, th.UserCycles - startCycles
}

type trackerSnap struct{ loads, stores, sois, writebacks uint64 }

func trackerSnapshot(k *kernel.Kernel) trackerSnap {
	var out trackerSnap
	for _, tr := range k.Trackers {
		out.loads += tr.Counters.Get("prosper.bitmap_loads")
		out.stores += tr.Counters.Get("prosper.bitmap_stores")
		out.sois += tr.Counters.Get("prosper.sois")
		out.writebacks += tr.Counters.Get("prosper.hwm_writebacks") +
			tr.Counters.Get("prosper.evictions") + tr.Counters.Get("prosper.flushes")
	}
	return out
}
