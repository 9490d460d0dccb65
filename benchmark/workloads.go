package main

import (
	"fmt"

	"prosper/internal/crash"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// op is one operation of a workload: a measured simulation run, or one
// mechanism's crash-point sweep. spec is always the simulation the op
// executes; for a sweep op it is the configuration of the sweep's golden
// run, which the traced invocation steps to attribute host time.
type op struct {
	label string
	spec  runner.Spec
	// sweep, when non-nil, makes the op a crash.Sweep instead of a run.
	sweep *crash.Config
	// observe attaches a telemetry tracer, a journey recorder and engine
	// profiling to the run.
	observe bool
}

// workloadDef names a workload and builds its operations from the seed.
type workloadDef struct {
	name string
	why  string
	ops  func(seed uint64, small bool) []op
}

// workloads is the benchmark's workload set; the names and reasons are
// mirrored in BENCHMARK.json. small selects the reduced size the tests
// run; the command line always runs full size.
var workloads = []workloadDef{
	{
		name: "paper-10ms",
		why:  "Fig 8 apps and mechanisms at the paper's real 10 ms interval: miss-bound, host time in dispatch, cache, vm and mem",
		ops:  paperOps,
	},
	{
		name: "stack-micro",
		why:  "Table III Stream and Random under Prosper-8B and Dirtybit: store-bound, L1-hit-bound, a full-footprint checkpoint every 200 us",
		ops:  stackMicroOps,
	},
	{
		name: "crash-sweep",
		why:  "128 crash points per mechanism: the only workload that forks snapshots and recovers crash images",
		ops:  crashSweepOps,
	},
	{
		name: "observed-10ms",
		why:  "paper-10ms runs with tracer, journey recorder and profiler on: observer cost, which paper-10ms must not pay",
		ops:  observedOps,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type mechDef struct {
	name    string
	factory persist.Factory // nil: no persistence
}

// paperSpec is one Fig 8 run: the application model under one stack
// mechanism, warmed up for half an interval and measured for interval ×
// checkpoints. A nil factory is the no-persistence baseline, which takes
// no checkpoints.
func paperSpec(app workload.AppParams, m mechDef, seed uint64, interval sim.Time, checkpoints int) runner.Spec {
	return runner.Spec{
		Name:         app.Name,
		Label:        app.Name + "/" + m.name,
		Prog:         func() workload.Program { return workload.NewApp(app) },
		StackMech:    m.factory,
		Checkpoint:   m.factory != nil,
		Cores:        1,
		Threads:      1,
		Interval:     interval,
		Checkpoints:  checkpoints,
		Warmup:       interval / 2,
		StackReserve: 1 << 20,
		HeapSize:     64 << 20,
		Seed:         seed,
	}
}

// paperInterval is the paper's consistency interval; tests shrink it.
func paperInterval(small bool) sim.Time {
	if small {
		return 200 * sim.Microsecond
	}
	return 10 * sim.Millisecond
}

func paperOps(seed uint64, small bool) []op {
	mechs := []mechDef{
		{"base", nil},
		{"prosper", persist.NewProsper(persist.ProsperConfig{})},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
		{"ssp-10us", persist.NewSSP(persist.SSPConfig{ConsolidationInterval: 10 * sim.Microsecond})},
	}
	var ops []op
	for _, app := range []workload.AppParams{workload.GapbsPR(), workload.YcsbMem()} {
		for _, m := range mechs {
			sp := paperSpec(app, m, seed, paperInterval(small), 1)
			ops = append(ops, op{label: sp.Label, spec: sp})
		}
	}
	return ops
}

func observedOps(seed uint64, small bool) []op {
	mechs := []mechDef{
		{"prosper", persist.NewProsper(persist.ProsperConfig{})},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
	}
	var ops []op
	for _, app := range []workload.AppParams{workload.GapbsPR(), workload.YcsbMem()} {
		for _, m := range mechs {
			sp := paperSpec(app, m, seed, paperInterval(small), 1)
			ops = append(ops, op{label: sp.Label, spec: sp, observe: true})
		}
	}
	return ops
}

func stackMicroOps(seed uint64, small bool) []op {
	params := workload.MicroParams{ArrayBytes: 64 << 10, WritesPerRun: 512}
	interval, checkpoints := 200*sim.Microsecond, 4
	if small {
		params.ArrayBytes = 16 << 10
		interval, checkpoints = 50*sim.Microsecond, 2
	}
	progs := []struct {
		name string
		prog func() workload.Program
	}{
		{"stream", func() workload.Program { return workload.NewStream(params) }},
		{"random", func() workload.Program { return workload.NewRandom(params) }},
	}
	mechs := []mechDef{
		{"prosper-8B", persist.NewProsper(persist.ProsperConfig{Granularity: 8})},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
	}
	var ops []op
	for _, p := range progs {
		for _, m := range mechs {
			sp := runner.Spec{
				Name:         p.name,
				Label:        p.name + "/" + m.name,
				Prog:         p.prog,
				StackMech:    m.factory,
				Checkpoint:   true,
				Cores:        1,
				Threads:      1,
				Interval:     interval,
				Checkpoints:  checkpoints,
				Warmup:       interval / 2,
				StackReserve: 1 << 20,
				HeapSize:     64 << 20,
				Seed:         seed,
			}
			ops = append(ops, op{label: sp.Label, spec: sp})
		}
	}
	return ops
}

// crashFactory mirrors the sweep's own mechanism table so the traced
// invocation can step the sweep's golden run.
func crashFactory(name string) persist.Factory {
	switch name {
	case "prosper":
		return persist.NewProsper(persist.ProsperConfig{})
	case "dirtybit":
		return persist.NewDirtybit(persist.DirtybitConfig{})
	case "ssp":
		return persist.NewSSP(persist.SSPConfig{})
	case "romulus":
		return persist.NewRomulus()
	case "none":
		return nil
	}
	panic(fmt.Sprintf("benchmark: no factory for crash mechanism %q", name))
}

// crashPoints is the per-mechanism crash-point count.
func crashPoints(small bool) int {
	if small {
		return 8
	}
	return 128
}

func crashSweepOps(seed uint64, small bool) []op {
	var ops []op
	for _, m := range crash.Mechanisms() {
		cfg := crash.Config{Mechanism: m, Points: crashPoints(small), Seed: int64(seed), Workers: 1}
		// The sweep's golden run with crash.Config's defaults: the counter
		// program, 50 µs intervals, four swept epochs plus two of
		// roll-forward headroom, a 64 KiB stack and a 1 MiB heap.
		sp := runner.Spec{
			Name:         "sweep",
			Label:        m,
			Prog:         func() workload.Program { return workload.NewCounter(1 << 30) },
			StackMech:    crashFactory(m),
			Checkpoint:   true,
			Cores:        1,
			Threads:      1,
			Interval:     50 * sim.Microsecond,
			Checkpoints:  6,
			StackReserve: 64 << 10,
			HeapSize:     1 << 20,
			Seed:         1,
		}
		ops = append(ops, op{label: m, spec: sp, sweep: &cfg})
	}
	return ops
}
