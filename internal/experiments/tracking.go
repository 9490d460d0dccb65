package experiments

import (
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/stats"
	"prosper/internal/workload"
)

// TrackingCostRow compares the standard dirty-tracking techniques of
// Section II-B on one workload.
type TrackingCostRow struct {
	Benchmark  string
	Technique  string
	Normalized float64 // execution time normalized to no tracking
	Faults     uint64  // write-permission faults taken (WriteProtect only)
}

// TrackingCost reproduces the Section II-B comparison LDT [45] makes and
// the paper summarizes: write-protection-based tracking forces a page
// fault on the first store to every page each interval, the Dirtybit
// approach only costs a page-walker dirty-bit update, and Prosper's
// tracker adds sub-page precision at similar cost. Expected shape:
// writeprotect > dirtybit >= prosper in overhead, with writeprotect's
// gap proportional to its fault count.
func TrackingCost(s Scale) ([]TrackingCostRow, *stats.Table) {
	s = s.withDefaults()
	benches := []bench{
		{"sparse", func() workload.Program {
			return workload.NewSparse(workload.MicroParams{ArrayBytes: 64 << 10})
		}},
		{"gapbs_pr", func() workload.Program { return workload.NewApp(workload.GapbsPR()) }},
	}
	techniques := []mech{
		{"writeprotect", persist.NewWriteProtect(persist.DirtybitConfig{})},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
		{"prosper", persist.NewProsper(persist.ProsperConfig{})},
	}

	var specs []runner.Spec
	for _, b := range benches {
		specs = append(specs, runner.Spec{Name: b.name, Label: b.name + "/base", Prog: b.prog})
		for _, tech := range techniques {
			specs = append(specs, runner.Spec{
				Name: b.name, Label: b.name + "/" + tech.name, Prog: b.prog,
				StackMech: tech.factory, Checkpoint: true,
			})
		}
	}
	res := s.runPlan("tracking", specs)

	tb := stats.NewTable("Section II-B: dirty-tracking technique cost (normalized execution time)",
		"benchmark", "technique", "normalized_time", "write_faults")
	var rows []TrackingCostRow
	stride := 1 + len(techniques)
	for bi, b := range benches {
		base := res[bi*stride]
		for ti, tech := range techniques {
			r := res[bi*stride+1+ti]
			norm := 0.0
			if r.UserOps > 0 {
				norm = float64(base.UserOps) / float64(r.UserOps)
			}
			rows = append(rows, TrackingCostRow{b.name, tech.name, norm, r.WriteFaults})
			tb.AddRow(b.name, tech.name, norm, r.WriteFaults)
		}
	}
	return rows, tb
}
