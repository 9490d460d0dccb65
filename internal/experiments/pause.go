package experiments

import (
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/stats"
	"prosper/internal/workload"
)

// PauseRow is one mechanism's measured-window checkpoint-pause
// decomposition: the pause distribution (count, log2-bucket quantiles,
// max) and the per-cause stall attribution, whose entries sum exactly to
// Total.
type PauseRow struct {
	Benchmark string
	Mechanism string
	Pauses    uint64
	Total     uint64
	P50       uint64
	P95       uint64
	Max       uint64
	Causes    [persist.NumCauses]uint64
}

// PauseBreakdown measures the stall-attribution report of DESIGN.md §10:
// for every stack mechanism, each checkpoint epoch's stop-the-world pause
// is decomposed into named causes (quiesce, tracker flush, inspect+clear,
// payload copy, NVM drain, commit fence) charged by the kernel and the
// mechanism as the epoch executes. The causes sum exactly to the measured
// pause — the attribution register charges every cycle between quiesce
// start and commit completion to exactly one cause — so the table makes
// visible *where* each mechanism's pause goes: inspect-dominated
// (Dirtybit's PTE walk, Prosper's bitmap scan), copy-dominated (Romulus's
// log replay), or drain-dominated (SSP's clwb sweep).
func PauseBreakdown(s Scale) ([]PauseRow, *stats.Table) {
	s = s.withDefaults()
	mechs := s.stackMechanisms()
	params := workload.GapbsPR()
	prog := func() workload.Program { return workload.NewApp(params) }

	var specs []runner.Spec
	for _, m := range mechs {
		specs = append(specs, runner.Spec{
			Name: params.Name, Label: params.Name + "/" + m.name, Prog: prog,
			StackMech: m.factory, Checkpoint: true,
		})
	}
	res := s.runPlan("pause", specs)

	headers := []string{"benchmark", "mechanism", "pauses", "pause_cycles", "p50", "p95", "max"}
	headers = append(headers, persist.CauseNames()...)
	tb := stats.NewTable("Pause attribution: per-epoch checkpoint pause by cause (cycles; causes sum to pause_cycles)",
		headers...)
	var rows []PauseRow
	for i, m := range mechs {
		r := res[i]
		rows = append(rows, PauseRow{
			Benchmark: params.Name, Mechanism: m.name,
			Pauses: r.PauseCount, Total: r.PauseTotal,
			P50: r.PauseP50, P95: r.PauseP95, Max: r.PauseMax,
			Causes: r.PauseCauses,
		})
		cells := []interface{}{params.Name, m.name, r.PauseCount, r.PauseTotal,
			r.PauseP50, r.PauseP95, r.PauseMax}
		for _, v := range r.PauseCauses {
			cells = append(cells, v)
		}
		tb.AddRow(cells...)
	}
	return rows, tb
}
