package experiments

import (
	"fmt"

	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/workload"
)

// stackMechanisms returns the Figure 8 stack-persistence contenders in
// display order. SSP variants are named by the paper's consolidation
// intervals, scaled to the run's interval.
func (s Scale) stackMechanisms() []mech {
	return []mech{
		{"romulus", persist.NewRomulus()},
		{"ssp-10us", persist.NewSSP(persist.SSPConfig{ConsolidationInterval: s.consolidation(10 * sim.Microsecond)})},
		{"ssp-100us", persist.NewSSP(persist.SSPConfig{ConsolidationInterval: s.consolidation(100 * sim.Microsecond)})},
		{"ssp-1ms", persist.NewSSP(persist.SSPConfig{ConsolidationInterval: s.consolidation(1 * sim.Millisecond)})},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
		{"prosper", persist.NewProsper(persist.ProsperConfig{})},
	}
}

// Fig8Row is one (benchmark, mechanism) normalized execution time.
type Fig8Row struct {
	Benchmark  string
	Mechanism  string
	Normalized float64 // execution time normalized to no persistence
}

// Fig8 reproduces Figure 8: execution time with each memory-persistence
// mechanism applied to the stack, normalized to execution with no
// persistence. Execution time for a fixed window is measured as
// throughput loss: normalized time = baseline user ops / mechanism user
// ops over the same simulated duration (checkpoint pauses and NVM
// residence both reduce completed work).
//
// Paper shape: Prosper beats Romulus and all SSP variants everywhere,
// beats Dirtybit except on Random and Stream; avg 2.1x (max 3.6x) better
// than SSP-10µs; SSP improves as the consolidation interval grows but
// stays behind Prosper even at 1 ms.
func Fig8(s Scale) ([]Fig8Row, *stats.Table) {
	s = s.withDefaults()
	mechs := s.stackMechanisms()
	benches := apps()

	// Plan: per benchmark, one no-persistence baseline then every
	// mechanism. Stride indexing recovers the pairs after execution.
	var specs []runner.Spec
	for _, params := range benches {
		params := params
		prog := func() workload.Program { return workload.NewApp(params) }
		specs = append(specs, runner.Spec{Name: params.Name, Label: params.Name + "/base", Prog: prog})
		for _, m := range mechs {
			specs = append(specs, runner.Spec{
				Name: params.Name, Label: params.Name + "/" + m.name, Prog: prog,
				StackMech: m.factory, Checkpoint: true,
			})
		}
	}
	res := s.runPlan("fig8", specs)

	tb := stats.NewTable("Figure 8: stack persistence, execution time normalized to no-persistence",
		"benchmark", "mechanism", "normalized_time")
	var rows []Fig8Row
	stride := 1 + len(mechs)
	for bi, params := range benches {
		base := res[bi*stride]
		for mi, m := range mechs {
			r := res[bi*stride+1+mi]
			norm := 0.0
			if r.UserOps > 0 {
				norm = float64(base.UserOps) / float64(r.UserOps)
			}
			rows = append(rows, Fig8Row{params.Name, m.name, norm})
			tb.AddRow(params.Name, m.name, norm)
		}
	}
	return rows, tb
}

// Fig9Row is one (benchmark, combination, ssp interval) result.
type Fig9Row struct {
	Benchmark   string
	Combination string // heap+stack mechanism combination
	SSPInterval string
	Normalized  float64
}

// Fig9 reproduces Figure 9: whole-memory (heap+stack) persistence with
// (i) SSP for both, (ii) SSP heap + Dirtybit stack, (iii) SSP heap +
// Prosper stack, across the three SSP consolidation intervals,
// normalized to no persistence.
//
// Paper shape: SSP+Prosper wins under every interval; avg 2x (max 2.6x)
// better than SSP-everywhere at 10 µs.
func Fig9(s Scale) ([]Fig9Row, *stats.Table) {
	s = s.withDefaults()
	intervals := []struct {
		name  string
		paper sim.Time
	}{
		{"10us", 10 * sim.Microsecond},
		{"100us", 100 * sim.Microsecond},
		{"1ms", 1 * sim.Millisecond},
	}
	comboNames := []string{"ssp", "ssp+dirtybit", "ssp+prosper"}
	benches := apps()

	var specs []runner.Spec
	for _, params := range benches {
		params := params
		prog := func() workload.Program { return workload.NewApp(params) }
		specs = append(specs, runner.Spec{Name: params.Name, Label: params.Name + "/base", Prog: prog})
		for _, iv := range intervals {
			heap := persist.NewSSP(persist.SSPConfig{ConsolidationInterval: s.consolidation(iv.paper)})
			stacks := []persist.Factory{
				persist.NewSSP(persist.SSPConfig{ConsolidationInterval: s.consolidation(iv.paper)}),
				persist.NewDirtybit(persist.DirtybitConfig{}),
				persist.NewProsper(persist.ProsperConfig{}),
			}
			for ci, stack := range stacks {
				specs = append(specs, runner.Spec{
					Name:  params.Name,
					Label: fmt.Sprintf("%s/%s@%s", params.Name, comboNames[ci], iv.name),
					Prog:  prog, StackMech: stack, HeapMech: heap, Checkpoint: true,
				})
			}
		}
	}
	res := s.runPlan("fig9", specs)

	tb := stats.NewTable("Figure 9: memory-state persistence (heap+stack), normalized to no-persistence",
		"benchmark", "combination", "ssp_interval", "normalized_time")
	var rows []Fig9Row
	stride := 1 + len(intervals)*len(comboNames)
	for bi, params := range benches {
		base := res[bi*stride]
		for ii, iv := range intervals {
			for ci, combo := range comboNames {
				r := res[bi*stride+1+ii*len(comboNames)+ci]
				norm := 0.0
				if r.UserOps > 0 {
					norm = float64(base.UserOps) / float64(r.UserOps)
				}
				rows = append(rows, Fig9Row{params.Name, combo, iv.name, norm})
				tb.AddRow(params.Name, combo, iv.name, norm)
			}
		}
	}
	return rows, tb
}

// Fig10Row is one (micro-benchmark, granularity) checkpoint measurement.
type Fig10Row struct {
	Benchmark   string
	Granularity string // "8B".."128B" or "page"
	MeanBytes   float64
	// TimeVsDirtybit is the stack checkpoint time normalized to the
	// page-level Dirtybit scheme on the same workload.
	TimeVsDirtybit float64
}

// microBenches returns the Table III micro-benchmarks.
func microBenches() []bench {
	mp := workload.MicroParams{ArrayBytes: 64 << 10, WritesPerRun: 512}
	return []bench{
		{"random", func() workload.Program { return workload.NewRandom(mp) }},
		{"stream", func() workload.Program { return workload.NewStream(mp) }},
		{"sparse", func() workload.Program { return workload.NewSparse(mp) }},
		{"quicksort", func() workload.Program { return workload.NewQuicksort(1024) }},
		{"recursive", func() workload.Program { return workload.NewRecursive(8) }},
		{"normal", func() workload.Program { return workload.NewNormal() }},
		{"poisson", func() workload.Program { return workload.NewPoisson() }},
	}
}

// fig10Grans are the sub-page tracking granularities swept by Figure 10.
var fig10Grans = []uint64{8, 16, 32, 64, 128}

// Fig10 reproduces Figure 10: per-checkpoint stack copy size (a) and
// checkpoint time normalized to page-level Dirtybit (b) for the Table III
// micro-benchmarks across tracking granularities 8..128 bytes.
//
// Paper shape: Sparse benefits most (99% size reduction, ~22x faster
// checkpoints); Stream gains nothing (everything is dirty); granularity
// increases checkpoint size for sparse patterns but shrinks bitmap
// inspection work.
func Fig10(s Scale) ([]Fig10Row, *stats.Table) {
	s = s.withDefaults()
	benches := microBenches()

	var specs []runner.Spec
	for _, mb := range benches {
		specs = append(specs, runner.Spec{
			Name: mb.name, Label: mb.name + "/page", Prog: mb.prog,
			StackMech: persist.NewDirtybit(persist.DirtybitConfig{}), Checkpoint: true,
		})
		for _, gran := range fig10Grans {
			specs = append(specs, runner.Spec{
				Name: mb.name, Label: fmt.Sprintf("%s/%dB", mb.name, gran), Prog: mb.prog,
				StackMech: persist.NewProsper(persist.ProsperConfig{Granularity: gran}), Checkpoint: true,
			})
		}
	}
	res := s.runPlan("fig10", specs)

	tb := stats.NewTable("Figure 10: checkpoint size and time vs tracking granularity (micro-benchmarks)",
		"benchmark", "granularity", "mean_ckpt_bytes", "time_vs_dirtybit")
	var rows []Fig10Row
	stride := 1 + len(fig10Grans)
	for bi, mb := range benches {
		dirty := res[bi*stride]
		rows = append(rows, Fig10Row{mb.name, "page", dirty.MeanStackCkptBytes(), 1})
		tb.AddRow(mb.name, "page", dirty.MeanStackCkptBytes(), 1.0)
		for gi, gran := range fig10Grans {
			r := res[bi*stride+1+gi]
			norm := 0.0
			if dirty.MeanStackCkptCycles() > 0 {
				norm = r.MeanStackCkptCycles() / dirty.MeanStackCkptCycles()
			}
			label := fmt.Sprintf("%dB", gran)
			rows = append(rows, Fig10Row{mb.name, label, r.MeanStackCkptBytes(), norm})
			tb.AddRow(mb.name, label, r.MeanStackCkptBytes(), norm)
		}
	}
	return rows, tb
}

// Fig11Row is one (benchmark, interval) checkpoint-size measurement.
type Fig11Row struct {
	Benchmark       string
	IntervalName    string
	MeanBytes       float64
	PerByteCkptTime float64 // cycles per persisted byte
}

// Fig11 reproduces Figure 11: average checkpoint size for the
// function-call benchmarks (Quicksort, Rec-4/8/16) across checkpoint
// intervals (paper: 1/5/10 ms; scaled proportionally here).
//
// Paper shape: Recursive's checkpoint size grows with the interval (no
// coalescing, no shrink); Quicksort benefits from a longer interval; very
// short intervals waste time on empty bitmap inspections (highest
// per-byte cost).
func Fig11(s Scale) ([]Fig11Row, *stats.Table) {
	s = s.withDefaults()
	benches := []bench{
		{"quicksort", func() workload.Program { return workload.NewQuicksort(1024) }},
		{"rec-4", func() workload.Program { return workload.NewRecursive(4) }},
		{"rec-8", func() workload.Program { return workload.NewRecursive(8) }},
		{"rec-16", func() workload.Program { return workload.NewRecursive(16) }},
	}
	// Paper intervals 1/5/10 ms map to scale 1/10, 1/2, 1/1 of s.Interval.
	intervals := []struct {
		name string
		frac sim.Time // divisor of s.Interval
	}{
		{"1ms", 10},
		{"5ms", 2},
		{"10ms", 1},
	}

	var specs []runner.Spec
	for _, b := range benches {
		for _, iv := range intervals {
			specs = append(specs, runner.Spec{
				Name: b.name, Label: b.name + "@" + iv.name, Prog: b.prog,
				StackMech: persist.NewProsper(persist.ProsperConfig{}), Checkpoint: true,
				Interval:    s.Interval / iv.frac,
				Checkpoints: s.Checkpoints * int(iv.frac),
			})
		}
	}
	res := s.runPlan("fig11", specs)

	tb := stats.NewTable("Figure 11: checkpoint size vs checkpoint interval (function-call benchmarks)",
		"benchmark", "interval", "mean_ckpt_bytes", "ns_per_byte")
	var rows []Fig11Row
	for bi, b := range benches {
		for ii, iv := range intervals {
			r := res[bi*len(intervals)+ii]
			perByte := 0.0
			if r.StackCkptBytes > 0 {
				perByte = float64(r.StackCkptCycles) / float64(r.StackCkptBytes) / 3.0 // cycles->ns
			}
			rows = append(rows, Fig11Row{b.name, iv.name, r.MeanStackCkptBytes(), perByte})
			tb.AddRow(b.name, iv.name, r.MeanStackCkptBytes(), perByte)
		}
	}
	return rows, tb
}
