package experiments

import (
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/stats"
	"prosper/internal/workload"
)

// AdaptiveRow compares fixed 8-byte tracking against the dynamic
// granularity extension on one workload.
type AdaptiveRow struct {
	Benchmark      string
	Mode           string // "fixed-8B" or "adaptive"
	MeanCkptBytes  float64
	MeanCkptCycles float64
	MetaScanned    uint64 // bitmap words the OS examined across the run
}

// Adaptive evaluates the dynamic-granularity extension (the paper's
// stated future work): for Stream-like dense writers the OS escalates the
// granularity, shrinking the bitmap-inspection work that dominates their
// checkpoints; for Sparse writers it stays fine so checkpoints stay tiny.
//
// In this machine model Stream's checkpoint is copy-bandwidth-bound, so
// the escalation's measurable win is the OS metadata work: the bitmap
// words inspected per checkpoint collapse as the granularity grows, while
// the copy volume stays at the (dense) dirty footprint. Sparse must stay
// at fine granularity with tiny checkpoints.
func Adaptive(s Scale) ([]AdaptiveRow, *stats.Table) {
	s = s.withDefaults()
	benches := []bench{
		{"stream", func() workload.Program {
			return workload.NewStream(workload.MicroParams{ArrayBytes: 128 << 10})
		}},
		{"sparse", func() workload.Program {
			return workload.NewSparse(workload.MicroParams{ArrayBytes: 64 << 10})
		}},
	}
	modes := []mech{
		{"fixed-8B", persist.NewProsper(persist.ProsperConfig{})},
		{"adaptive", persist.NewAdaptiveProsper(persist.AdaptiveConfig{})},
	}

	var specs []runner.Spec
	for _, b := range benches {
		for _, m := range modes {
			specs = append(specs, runner.Spec{
				Name: b.name, Label: b.name + "/" + m.name, Prog: b.prog,
				StackMech: m.factory, Checkpoint: true,
				// More checkpoints than usual so the tuner converges
				// within the measured window.
				Checkpoints: s.Checkpoints * 6,
			})
		}
	}
	res := s.runPlan("adaptive", specs)

	tb := stats.NewTable("Extension: dynamic tracking granularity (fixed 8B vs adaptive)",
		"benchmark", "mode", "mean_ckpt_bytes", "mean_ckpt_cycles", "meta_words")
	var rows []AdaptiveRow
	for bi, b := range benches {
		for mi, m := range modes {
			r := res[bi*len(modes)+mi]
			rows = append(rows, AdaptiveRow{
				Benchmark:      b.name,
				Mode:           m.name,
				MeanCkptBytes:  r.MeanStackCkptBytes(),
				MeanCkptCycles: r.MeanStackCkptCycles(),
				MetaScanned:    r.StackCkptMeta,
			})
			tb.AddRow(b.name, m.name, r.MeanStackCkptBytes(), r.MeanStackCkptCycles(), r.StackCkptMeta)
		}
	}
	return rows, tb
}
