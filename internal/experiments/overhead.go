package experiments

import (
	"fmt"

	"prosper/internal/energy"
	"prosper/internal/persist"
	"prosper/internal/prosper"
	"prosper/internal/runner"
	"prosper/internal/stats"
	"prosper/internal/workload"
)

// overheadBenches returns the Figure 12/13 workload set: the SPEC CPU
// 2017 subset plus SSSP, PR, and the Stream micro-benchmark.
func overheadBenches() []bench {
	mk := func(p workload.AppParams) func() workload.Program {
		return func() workload.Program { return workload.NewApp(p) }
	}
	return []bench{
		{"mcf", mk(workload.SpecMCF())},
		{"omnetpp", mk(workload.SpecOmnetpp())},
		{"perlbench", mk(workload.SpecPerlbench())},
		{"leela", mk(workload.SpecLeela())},
		{"g500_sssp", mk(workload.G500SSSP())},
		{"gapbs_pr", mk(workload.GapbsPR())},
		{"stream", func() workload.Program {
			return workload.NewStream(workload.MicroParams{ArrayBytes: 64 << 10})
		}},
	}
}

// Fig12Row is one (benchmark, granularity) tracking-overhead result.
type Fig12Row struct {
	Benchmark   string
	Granularity string
	// Speedup is user-space IPC with Prosper tracking active divided by
	// user-space IPC with no dirty tracking (paper: >= ~0.97 everywhere,
	// i.e. <1% average overhead, max ~3%).
	Speedup float64
}

// Fig12 reproduces Figure 12: the performance overhead Prosper's hardware
// tracking imposes on applications, measured as user-space IPC relative
// to a run with no dirty tracking, for granularities 8/64/128 bytes.
//
// The op-window methodology (runner.Spec.OpWindow) does not produce
// RunStats, so this figure fans out per benchmark with runner.ForEach
// instead of a plan: each iteration owns its baseline and its three
// tracked windows, and the rows are assembled in benchmark order
// afterwards.
func Fig12(s Scale) ([]Fig12Row, *stats.Table) {
	s = s.withDefaults()
	benches := overheadBenches()
	grans := []uint64{8, 64, 128}
	warmupOps := uint64(s.TraceOps) / 5
	measureOps := uint64(s.TraceOps)

	slots := make([][]Fig12Row, len(benches))
	runner.ForEach(s.Workers, len(benches), func(i int) {
		b := benches[i]
		base := s.own("fig12", runner.Spec{Name: b.name, Label: b.name + "/base", Prog: b.prog})
		baseOps, baseCycles := base.OpWindow(warmupOps, measureOps)
		var rows []Fig12Row
		for _, gran := range grans {
			g := fmt.Sprintf("%dB", gran)
			ops, cycles := s.own("fig12", runner.Spec{
				Name: b.name, Label: b.name + "/" + g, Prog: b.prog,
				StackMech:  persist.NewProsper(persist.ProsperConfig{Granularity: gran}),
				Checkpoint: true,
			}).OpWindow(warmupOps, measureOps)
			speedup := 0.0
			if cycles > 0 && baseOps > 0 && baseCycles > 0 {
				baseIPC := float64(baseOps) / float64(baseCycles)
				trackIPC := float64(ops) / float64(cycles)
				speedup = trackIPC / baseIPC
			}
			rows = append(rows, Fig12Row{b.name, g, speedup})
		}
		slots[i] = rows
	})

	tb := stats.NewTable("Figure 12: user-IPC speedup vs no dirty tracking (Prosper tracking active)",
		"benchmark", "granularity", "speedup")
	var rows []Fig12Row
	for _, rs := range slots {
		for _, r := range rs {
			rows = append(rows, r)
			tb.AddRow(r.Benchmark, r.Granularity, r.Speedup)
		}
	}
	return rows, tb
}

// trackerBenches returns the Figure 13 and ablation workloads: mcf (poor
// stack locality) and SSSP (good).
func trackerBenches() []bench {
	return []bench{
		{"mcf", func() workload.Program { return workload.NewApp(workload.SpecMCF()) }},
		{"g500_sssp", func() workload.Program { return workload.NewApp(workload.G500SSSP()) }},
	}
}

// Fig13Row is one (benchmark, parameter value) bitmap-traffic result.
type Fig13Row struct {
	Benchmark    string
	Param        string // "hwm" or "lwm"
	Value        int
	BitmapLoads  uint64
	BitmapStores uint64
}

// Fig13 reproduces Figure 13: sensitivity of the tracker's bitmap load
// and store traffic to the HWM (with LWM fixed at 4) and to the LWM
// (with HWM fixed at 24), for mcf and SSSP.
//
// Paper shape: SSSP's traffic falls as HWM rises (spatial locality in its
// stack accesses) with little LWM sensitivity; mcf's traffic rises with
// HWM (poor locality) and falls with a larger LWM.
func Fig13(s Scale) ([]Fig13Row, *stats.Table) {
	s = s.withDefaults()
	benches := trackerBenches()
	type sweep struct {
		param string
		value int
		cfg   prosper.Config
	}
	var sweeps []sweep
	for _, hwm := range []int{8, 16, 24, 32} {
		sweeps = append(sweeps, sweep{"hwm", hwm, prosper.Config{HWM: hwm, LWM: 4}})
	}
	for _, lwm := range []int{2, 4, 8, 12} {
		sweeps = append(sweeps, sweep{"lwm", lwm, prosper.Config{HWM: 24, LWM: lwm}})
	}

	var specs []runner.Spec
	for _, b := range benches {
		for _, sw := range sweeps {
			specs = append(specs, runner.Spec{
				Name: b.name, Label: fmt.Sprintf("%s/%s=%d", b.name, sw.param, sw.value), Prog: b.prog,
				StackMech: persist.NewProsper(persist.ProsperConfig{}), Checkpoint: true, Tracker: sw.cfg,
			})
		}
	}
	res := s.runPlan("fig13", specs)

	tb := stats.NewTable("Figure 13: bitmap loads/stores vs HWM (LWM=4) and vs LWM (HWM=24)",
		"benchmark", "param", "value", "bitmap_loads", "bitmap_stores")
	var rows []Fig13Row
	for bi, b := range benches {
		for si, sw := range sweeps {
			r := res[bi*len(sweeps)+si]
			rows = append(rows, Fig13Row{b.name, sw.param, sw.value, r.TrackerBitmapLoads, r.TrackerBitmapStores})
			tb.AddRow(b.name, sw.param, sw.value, r.TrackerBitmapLoads, r.TrackerBitmapStores)
		}
	}
	return rows, tb
}

// AblationRow compares the two lookup-table allocation policies.
type AblationRow struct {
	Benchmark    string
	Policy       string
	BitmapLoads  uint64
	BitmapStores uint64
	IPC          float64
}

// Ablation compares Accumulate-and-Apply (the paper's choice, Section
// III-B) against Load-and-Update on the Figure 13 workloads.
func Ablation(s Scale) ([]AblationRow, *stats.Table) {
	s = s.withDefaults()
	benches := trackerBenches()
	policies := []prosper.AllocPolicy{prosper.AccumulateApply, prosper.LoadUpdate}

	var specs []runner.Spec
	for _, b := range benches {
		for _, pol := range policies {
			specs = append(specs, runner.Spec{
				Name: b.name, Label: b.name + "/" + pol.String(), Prog: b.prog,
				StackMech: persist.NewProsper(persist.ProsperConfig{}), Checkpoint: true,
				Tracker: prosper.Config{Policy: pol},
			})
		}
	}
	res := s.runPlan("ablation", specs)

	tb := stats.NewTable("Ablation: lookup-table allocation policy",
		"benchmark", "policy", "bitmap_loads", "bitmap_stores", "ipc")
	var rows []AblationRow
	for bi, b := range benches {
		for pi, pol := range policies {
			r := res[bi*len(policies)+pi]
			rows = append(rows, AblationRow{b.name, pol.String(), r.TrackerBitmapLoads, r.TrackerBitmapStores, r.IPC()})
			tb.AddRow(b.name, pol.String(), r.TrackerBitmapLoads, r.TrackerBitmapStores, r.IPC())
		}
	}
	return rows, tb
}

// CtxSwitchResult is the Section V context-switch overhead measurement.
type CtxSwitchResult struct {
	Switches      uint64
	MeanCyclesIn  float64
	MeanCyclesOut float64
	MeanTotal     float64 // paper: ~870 cycles for tracker save/restore
}

// ContextSwitch reproduces the context-switch overhead study: a
// two-thread micro-benchmark sharing one core with Prosper tracking, the
// kernel flushing/quiescing the outgoing tracker and reloading the
// incoming thread's MSRs at every switch.
func ContextSwitch(s Scale) (CtxSwitchResult, *stats.Table) {
	s = s.withDefaults()
	// No periodic checkpoints: the study isolates the per-switch tracker
	// flush/quiesce/save plus MSR reload on quantum preemptions between
	// the two threads.
	r := s.runPlan("", []runner.Spec{{
		Name: "ctxswitch",
		Prog: func() workload.Program {
			return workload.NewRandom(workload.MicroParams{ArrayBytes: 32 << 10, WritesPerRun: 256})
		},
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
		Threads:   2,
	}})[0]
	var res CtxSwitchResult
	res.Switches = r.CtxSwitches
	if r.CtxSwitches > 0 {
		res.MeanCyclesIn = float64(r.CtxSwitchIn) / float64(r.CtxSwitches)
		res.MeanCyclesOut = float64(r.CtxSwitchOut) / float64(r.CtxSwitches)
		res.MeanTotal = res.MeanCyclesIn + res.MeanCyclesOut
	}
	tb := stats.NewTable("Context-switch overhead (tracker save/restore)",
		"switches", "mean_in_cycles", "mean_out_cycles", "mean_total")
	tb.AddRow(res.Switches, res.MeanCyclesIn, res.MeanCyclesOut, res.MeanTotal)
	return res, tb
}

// Energy reproduces the Section V energy/area estimate for a measured run.
func Energy(s Scale) (energy.Report, *stats.Table) {
	s = s.withDefaults()
	r := s.runPlan("", []runner.Spec{{
		Name:       "gapbs_pr",
		Prog:       func() workload.Program { return workload.NewApp(workload.GapbsPR()) },
		StackMech:  persist.NewProsper(persist.ProsperConfig{}),
		Checkpoint: true,
	}})[0]
	rep := energy.Compute(energy.Activity{
		SOIs:         r.TrackerSOIs,
		TableUpdates: r.TrackerUpdates,
		Writebacks:   r.TrackerWritebacks,
		Cycles:       uint64(r.Elapsed),
	})
	tb := stats.NewTable("Lookup-table energy/area (CACTI-P 7nm constants)",
		"dyn_read_nJ", "dyn_write_nJ", "leakage_nJ", "total_nJ", "area_mm2")
	tb.AddRow(rep.DynamicReadNJ, rep.DynamicWriteNJ, rep.LeakageNJ, rep.TotalNJ, rep.AreaMM2)
	return rep, tb
}

// Table1 renders the qualitative mechanism-comparison matrix (Table I).
func Table1() *stats.Table {
	tb := stats.NewTable("Table I: qualitative comparison of memory persistence mechanisms",
		"property", "flush/undo/redo", "romulus", "ssp", "dirtybit", "prosper")
	tb.AddRow("achieves process persistence", "no", "no", "no", "yes", "yes")
	tb.AddRow("works without compiler support", "no", "no", "yes", "yes", "yes")
	tb.AddRow("stack pointer awareness", "no", "no", "no", "yes", "yes")
	tb.AddRow("allows stack in DRAM", "no", "no", "no", "yes", "yes")
	tb.AddRow("sub-page dirty tracking", "n/a", "per-store log", "cache line", "no (page)", "yes (8B..)")
	return tb
}
