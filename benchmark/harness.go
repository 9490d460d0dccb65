package main

import (
	"bytes"
	"fmt"
	"runtime"

	"prosper/internal/crash"
	"prosper/internal/hostprof"
	"prosper/internal/journey"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// journeyRate samples one access in journeyRate on observed runs.
const journeyRate = 256

// now is the benchmark's only host clock: monotonic nanoseconds.
func now() int64 { return hostprof.Nanotime() }

// stick is the process's yardstick, read around every measured segment.
var stick = newYardstick()

// cost is the host cost of one op execution. Host times are in
// reference nanoseconds (see yardstick.go), except rawWallNS.
type cost struct {
	setupNS  float64 // runs: boot + spawn + warmup; sweeps: a one-point sweep
	windowNS float64 // runs: the measured window; sweeps: the whole sweep
	wallNS   float64 // runs: setup, window, and writing observer output

	rawWallNS float64 // wallNS's segments in wall-clock nanoseconds

	allocBytes uint64 // heap bytes allocated
	mallocs    uint64 // heap objects allocated
	liveHeap   uint64 // heap in use after a GC at window end, before teardown
}

// runOutcome is what one phase-driven run reports.
type runOutcome struct {
	stats runner.RunStats
	cost

	// profiled is set when the engine counted events per component:
	// stats.EventCounts then sums exactly to stats.EventsFired (both
	// exclude the traced loop's own deadline events).
	profiled bool

	obs observerOutput
}

// observerOutput is what an observed run's tracer and journey recorder
// produced and what writing it cost.
type observerOutput struct {
	traceEvents    int
	traceBytes     int64
	traceWriteNS   int64
	sampled        uint64
	journalBytes   int64
	journalWriteNS int64
}

// byteCounter is an io.Writer that discards and counts.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// execute runs one op's spec through the same phases as
// runner.Spec.Run — kernel.New, Spawn, RunFor(warmup), RunFor(window) —
// using only the packages' public API, timing each phase with a meter.
// With a non-nil acct the run is traced: every engine event is stepped
// and attributed, and the programs and mechanisms are wrapped in timing
// shims. seed keys the journey sampler of observed runs.
func execute(o op, seed uint64, acct *layerAcct) (runOutcome, error) {
	sp := o.spec
	var out runOutcome
	var (
		trace   *telemetry.Trace
		tracer  *telemetry.Tracer
		journal *journey.Journal
		rec     *journey.Recorder
	)
	if o.observe {
		trace = telemetry.NewTrace()
		tracer = trace.NewTracer(o.label)
		journal = journey.NewJournal()
		rec = journal.NewRecorder(o.label, journeyRate, seed)
	}
	stackMech := sp.StackMech
	prog := sp.Prog
	if acct != nil {
		stackMech = acct.wrapFactory(stackMech)
		prog = acct.wrapProgram(prog)
	}

	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m := newMeter(stick)
	m.begin()
	k := kernel.New(kernel.Config{
		Machine:     machine.Config{Cores: sp.Cores},
		Quantum:     sp.Interval / 2,
		TrackerCfg:  sp.Tracker,
		Tracer:      tracer,
		SampleEvery: sp.SampleEvery,
		Journey:     rec,
	})
	// kernel.New fires no events, so counts enabled here sum to Fired().
	var prof *sim.Profile
	switch {
	case acct != nil:
		prof = k.Eng.EnableProfiling(nil)
	case o.observe:
		prof = k.Eng.EnableProfiling(hostprof.Nanotime)
	}
	runTrack := tracer.Track("run")
	runSpan := tracer.Begin(runTrack, "run:"+o.label)
	p := spawn(k, sp, stackMech, prog)
	defer p.Shutdown()

	sentinels := uint64(0)
	advance := func(d sim.Time) {
		if acct == nil {
			m.runFor(k, d)
			return
		}
		acct.runFor(k, prof, d)
		sentinels++
		m.lap()
	}
	warm := tracer.Begin(runTrack, "warmup")
	advance(sp.Warmup)
	warm.End()
	_, setupRef := m.totals()
	base := captureBaselines(k, p)
	measured := tracer.Begin(runTrack, "measured")
	advance(sp.Interval * sim.Time(sp.Checkpoints))
	measured.End()
	_, windowEnd := m.totals()

	out.stats = collect(k, p, base)
	out.stats.EventsFired -= sentinels
	runSpan.End(
		telemetry.U("user_ops", out.stats.UserOps),
		telemetry.U("checkpoints", out.stats.Checkpoints),
		telemetry.U("checkpoint_bytes", out.stats.CheckpointBytes),
	)
	journey.ExportTrace(rec, tracer)
	if o.observe {
		var tb, jb byteCounter
		w0 := now()
		if err := trace.WriteJSON(&tb); err != nil {
			return out, fmt.Errorf("%s: writing trace: %w", o.label, err)
		}
		w1 := now()
		if err := journal.WriteJSONL(&jb); err != nil {
			return out, fmt.Errorf("%s: writing journal: %w", o.label, err)
		}
		w2 := now()
		_, sampled, _ := rec.Counts()
		out.obs = observerOutput{
			traceEvents: tracer.Events(), traceBytes: tb.n, traceWriteNS: w1 - w0,
			sampled: sampled, journalBytes: jb.n, journalWriteNS: w2 - w1,
		}
	}
	m.lap()
	rawWall, wallRef := m.totals()
	runtime.ReadMemStats(&ms1)

	if prof != nil {
		snap := prof.Snapshot()
		out.profiled = true
		out.stats.EventCounts = snap.Counts
		out.stats.EventCounts[sim.CompSim] -= sentinels
		if o.observe {
			out.stats.EventNanos = snap.Nanos
		}
	}
	if acct != nil {
		if err := acct.afterRun(k); err != nil {
			return out, fmt.Errorf("%s: %w", o.label, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms2)

	out.setupNS = setupRef
	out.windowNS = windowEnd - setupRef
	out.wallNS = wallRef
	out.rawWallNS = rawWall
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.liveHeap = ms2.HeapAlloc
	return out, nil
}

// spawn starts sp's process on k exactly as runner.Spec.Run does, with
// the given stack mechanism and program constructor in place of the
// spec's own.
func spawn(k *kernel.Kernel, sp runner.Spec, stackMech persist.Factory, prog func() workload.Program) *kernel.Process {
	pc := kernel.ProcessConfig{
		Name:         sp.Name,
		StackMech:    stackMech,
		HeapMech:     sp.HeapMech,
		StackReserve: sp.StackReserve,
		HeapSize:     sp.HeapSize,
		PremapHeap:   true,
		Seed:         sp.Seed,
	}
	if sp.Checkpoint {
		pc.CheckpointInterval = sp.Interval
	}
	progs := make([]workload.Program, sp.Threads)
	for i := range progs {
		progs[i] = prog()
	}
	return k.Spawn(pc, progs...)
}

// baselines are the counters the measured window subtracts from, taken
// at warmup end (the public-field twin of the runner's own capture).
type baselines struct {
	ops, cycles                 uint64
	ckpts, ckptBytes            uint64
	stackBytes, stackCycles     uint64
	stackMeta                   uint64
	heapBytes, heapCycles       uint64
	loads, stores, sois, wbacks uint64
	writeFaults                 uint64
	start                       sim.Time
}

func trackerTotals(k *kernel.Kernel) (loads, stores, sois, wbacks uint64) {
	for _, tr := range k.Trackers {
		loads += tr.Counters.Get("prosper.bitmap_loads")
		stores += tr.Counters.Get("prosper.bitmap_stores")
		sois += tr.Counters.Get("prosper.sois")
		wbacks += tr.Counters.Get("prosper.hwm_writebacks") +
			tr.Counters.Get("prosper.evictions") + tr.Counters.Get("prosper.flushes")
	}
	return loads, stores, sois, wbacks
}

func captureBaselines(k *kernel.Kernel, p *kernel.Process) baselines {
	var b baselines
	for _, t := range p.Threads {
		b.ops += t.UserOps
		b.cycles += t.UserCycles
	}
	b.ckpts = p.CheckpointCount
	b.ckptBytes = p.CheckpointBytes
	b.stackBytes = p.Counters.Get("proc.stack_ckpt_bytes")
	b.stackCycles = p.Counters.Get("proc.stack_ckpt_cycles")
	b.stackMeta = p.Counters.Get("proc.stack_ckpt_meta")
	b.heapBytes = p.Counters.Get("proc.heap_ckpt_bytes")
	b.heapCycles = p.Counters.Get("proc.heap_ckpt_cycles")
	b.loads, b.stores, b.sois, b.wbacks = trackerTotals(k)
	b.writeFaults = uint64(p.AS.WriteFaults())
	b.start = k.Eng.Now()
	return b
}

// collect computes the measured window's RunStats as deltas from b,
// field for field as runner.Spec.Run does (the equivalence test pins it).
func collect(k *kernel.Kernel, p *kernel.Process, b baselines) runner.RunStats {
	r := runner.RunStats{Name: p.Name, Elapsed: k.Eng.Now() - b.start}
	for _, t := range p.Threads {
		r.UserOps += t.UserOps
		r.UserCycles += t.UserCycles
	}
	r.UserOps -= b.ops
	r.UserCycles -= b.cycles
	r.Checkpoints = p.CheckpointCount - b.ckpts
	r.CheckpointBytes = p.CheckpointBytes - b.ckptBytes
	r.StackCkptBytes = p.Counters.Get("proc.stack_ckpt_bytes") - b.stackBytes
	r.StackCkptCycles = p.Counters.Get("proc.stack_ckpt_cycles") - b.stackCycles
	r.StackCkptMeta = p.Counters.Get("proc.stack_ckpt_meta") - b.stackMeta
	r.HeapCkptBytes = p.Counters.Get("proc.heap_ckpt_bytes") - b.heapBytes
	r.HeapCkptCycles = p.Counters.Get("proc.heap_ckpt_cycles") - b.heapCycles
	loads, stores, sois, wbacks := trackerTotals(k)
	r.TrackerBitmapLoads = loads - b.loads
	r.TrackerBitmapStores = stores - b.stores
	r.TrackerSOIs = sois - b.sois
	r.TrackerWritebacks = wbacks - b.wbacks
	r.TrackerUpdates = r.TrackerSOIs
	r.WriteFaults = uint64(p.AS.WriteFaults()) - b.writeFaults
	pauses := stats.NewHistogram()
	for _, ep := range p.EpochPauses {
		if ep.Seq <= b.ckpts {
			continue
		}
		pauses.Observe(uint64(ep.Pause))
		for c, v := range ep.Causes {
			r.PauseCauses[c] += v
		}
	}
	r.PauseCount = pauses.Count()
	r.PauseTotal = pauses.Sum()
	r.PauseMax = pauses.Max()
	r.PauseP50 = pauses.Quantile(0.50)
	r.PauseP95 = pauses.Quantile(0.95)
	r.PauseP99 = pauses.Quantile(0.99)
	r.CtxSwitches = k.Counters.Get("kernel.context_switches")
	r.CtxSwitchIn = k.Counters.Get("kernel.ctxswitch_in_cycles")
	r.CtxSwitchOut = k.Counters.Get("kernel.ctxswitch_out_cycles")
	r.SimEnd = k.Eng.Now()
	r.EventsFired = k.Eng.Fired()
	return r
}

// sweepOutcome is one timed crash-point sweep.
type sweepOutcome struct {
	result crash.Result
	cost
}

// executeSweep times the op's sweep. The set-up measurement is a
// separate one-point sweep of the same configuration; its verdict must
// hold like every other point's. A sweep offers no point to cut it into
// segments, so the yardstick is read only before and after each one.
func executeSweep(o op) (sweepOutcome, error) {
	var out sweepOutcome
	one := *o.sweep
	one.Points = 1
	m := newMeter(stick)
	m.begin()
	first, err := crash.Sweep(one)
	m.lap()
	if err != nil {
		return out, fmt.Errorf("%s: %w", o.label, err)
	}
	setupWall, setupRef := m.totals()
	out.setupNS = setupRef
	if v := first.Violations(); len(v) > 0 {
		return out, fmt.Errorf("%s: one-point sweep violation: %s", o.label, v[0].Violation)
	}
	runtime.GC()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m.begin()
	out.result, err = crash.Sweep(*o.sweep)
	m.lap()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return out, fmt.Errorf("%s: %w", o.label, err)
	}
	wall, ref := m.totals()
	out.windowNS = ref - setupRef
	out.wallNS = out.windowNS
	out.rawWallNS = wall - setupWall
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.liveHeap = ms2.HeapAlloc
	return out, nil
}

// snapshotCost is one save and resume of a machine snapshot.
type snapshotCost struct {
	saveNS, resumeNS int64
	bytes            int
}

// probeSnapshot runs the op's spec to its first checkpoint commit after
// warmup, saves a machine snapshot there, and resumes it into a freshly
// booted kernel, timing both.
func probeSnapshot(o op) (snapshotCost, error) {
	sp := o.spec
	var cost snapshotCost
	boot := func() (*kernel.Kernel, *kernel.Process) {
		k := kernel.New(kernel.Config{Machine: machine.Config{Cores: sp.Cores}, Quantum: sp.Interval / 2, TrackerCfg: sp.Tracker})
		return k, spawn(k, sp, sp.StackMech, sp.Prog)
	}
	k, p := boot()
	defer p.Shutdown()
	k.RunFor(sp.Warmup)
	var buf bytes.Buffer
	var saveErr error
	saved := false
	p.CommitHook = func(*kernel.Process) {
		if saved {
			return
		}
		t := now()
		saveErr = snapshot.Save(&buf, k, nil)
		cost.saveNS = now() - t
		saved = true
	}
	k.Eng.RunWhile(func() bool { return !saved })
	if saveErr != nil {
		return cost, fmt.Errorf("%s: snapshot save: %w", o.label, saveErr)
	}
	if !saved {
		return cost, fmt.Errorf("%s: engine drained before the first commit", o.label)
	}
	cost.bytes = buf.Len()

	k2, p2 := boot()
	defer p2.Shutdown()
	t := now()
	res, err := snapshot.Resume(bytes.NewReader(buf.Bytes()), k2)
	if err == nil {
		err = res.Finish()
	}
	cost.resumeNS = now() - t
	if err != nil {
		return cost, fmt.Errorf("%s: snapshot resume: %w", o.label, err)
	}
	return cost, nil
}
