// Command prosper-experiments regenerates the paper's tables and figures
// on the simulated machine. Each experiment prints a paper-style ASCII
// table; DESIGN.md §5 maps experiment ids to the paper.
//
// Usage:
//
//	prosper-experiments [-interval us] [-checkpoints n] [-ops n]
//	                    [-parallel n] [-progress] [-list]
//	                    [-trace-out FILE [-sample-every cycles]]
//	                    [-journey-out FILE [-journey-sample-rate n]
//	                    [-journey-seed s]]
//	                    [fig1 fig2 ... | all | quick]
//	prosper-experiments -crash-sweep [-crash-points n] [-crash-seed s]
//	                    [-parallel n]
//
// "quick" runs the trace-driven motivation figures only (seconds);
// "all" also runs the full-machine figures (minutes at default scale).
//
// -crash-sweep runs the differential power-failure sweep instead of the
// figures: every mechanism is crashed at -crash-points seeded cycles and
// recovered from the surviving NVM image, and any recovery-invariant
// violation makes the command exit non-zero (see EXPERIMENTS.md).
//
// Every figure is a declarative run plan executed on a bounded worker
// pool (-parallel, default GOMAXPROCS). Each run owns a private
// deterministic simulation, and results are assembled in plan order, so
// tables on stdout are byte-identical for any -parallel value; progress
// and timing go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"prosper/internal/crash"
	"prosper/internal/experiments"
	"prosper/internal/journey"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
)

type experiment struct {
	name  string
	heavy bool
	run   func() *stats.Table
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. -cpuprofile and -memprofile cover
// every mode: profiling starts before the mode dispatch, and both files
// are finished on every return path.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("prosper-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	intervalUS := fs.Int("interval", 200, "checkpoint interval in simulated microseconds (paper: 10000)")
	checkpoints := fs.Int("checkpoints", 10, "checkpoints per measured run")
	traceOps := fs.Int("ops", 150000, "trace length for motivation figures")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of ASCII tables")
	chartOut := fs.Bool("chart", false, "also render each figure as an ASCII bar chart")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation runs per experiment")
	list := fs.Bool("list", false, "print the experiment registry and exit")
	progress := fs.Bool("progress", true, "report per-run progress (spec, sim cycles, wall seconds) on stderr")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON trace of every run to FILE")
	journeyOut := fs.String("journey-out", "", "write sampled per-access journey records (JSON lines) of every run to FILE")
	journeyRate := fs.Uint64("journey-sample-rate", 4096, "sample 1-in-N accesses for -journey-out (deterministic in the access sequence number)")
	journeySeed := fs.Uint64("journey-seed", 1, "seed for -journey-out access sampling")
	sampleEvery := fs.Int64("sample-every", 30_000, "cadence of -trace-out's occupancy counter samples, in simulated cycles (30000 = 10 µs)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE at exit")
	crashSweep := fs.Bool("crash-sweep", false, "run the power-failure crash sweep over every mechanism instead of the figures")
	crashPoints := fs.Int("crash-points", 64, "crash points per mechanism for -crash-sweep")
	crashSeed := fs.Int64("crash-seed", 1, "PRNG seed for -crash-sweep point sampling")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err, 0)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err, 0)
		}
		defer func() {
			pprof.StopCPUProfile()
			status = fail(stderr, f.Close(), status)
		}()
	}
	if *memprofile != "" {
		defer func() {
			status = fail(stderr, writeFile(*memprofile, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			}), status)
		}()
	}

	if *crashSweep {
		return runCrashSweep(stdout, stderr, *crashPoints, *crashSeed, *parallel)
	}

	scale := experiments.DefaultScale()
	scale.Interval = sim.Time(*intervalUS) * sim.Microsecond
	scale.Checkpoints = *checkpoints
	scale.TraceOps = *traceOps
	scale.Workers = *parallel
	if *progress {
		scale.Log = stats.NewRunLog(stderr)
	}
	if *traceOut != "" {
		scale.Trace = telemetry.NewTrace()
		scale.SampleEvery = sim.Time(*sampleEvery)
	}
	if *journeyOut != "" {
		scale.Journal = journey.NewJournal()
		scale.JourneySampleRate = *journeyRate
		scale.JourneySeed = *journeySeed
	}

	exps := []experiment{
		{"table1", false, func() *stats.Table { return experiments.Table1() }},
		{"fig1", false, func() *stats.Table { _, tb := experiments.Fig1(scale); return tb }},
		{"fig2", false, func() *stats.Table { _, tb := experiments.Fig2(scale); return tb }},
		{"fig3", false, func() *stats.Table { _, tb := experiments.Fig3(scale); return tb }},
		{"fig4", false, func() *stats.Table { _, tb := experiments.Fig4(scale); return tb }},
		{"fig8", true, func() *stats.Table { _, tb := experiments.Fig8(scale); return tb }},
		{"fig9", true, func() *stats.Table { _, tb := experiments.Fig9(scale); return tb }},
		{"fig10", true, func() *stats.Table { _, tb := experiments.Fig10(scale); return tb }},
		{"fig11", true, func() *stats.Table { _, tb := experiments.Fig11(scale); return tb }},
		{"fig12", true, func() *stats.Table { _, tb := experiments.Fig12(scale); return tb }},
		{"fig13", true, func() *stats.Table { _, tb := experiments.Fig13(scale); return tb }},
		{"ablation", true, func() *stats.Table { _, tb := experiments.Ablation(scale); return tb }},
		{"tracking", true, func() *stats.Table { _, tb := experiments.TrackingCost(scale); return tb }},
		{"adaptive", true, func() *stats.Table { _, tb := experiments.Adaptive(scale); return tb }},
		{"pause", true, func() *stats.Table { _, tb := experiments.PauseBreakdown(scale); return tb }},
		{"ctxswitch", false, func() *stats.Table { _, tb := experiments.ContextSwitch(scale); return tb }},
		{"energy", false, func() *stats.Table { _, tb := experiments.Energy(scale); return tb }},
	}

	if *list {
		printRegistry(stdout, exps)
		return 0
	}

	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"quick"}
	}
	var selected []experiment
	for _, a := range names {
		switch a {
		case "all":
			selected = append(selected, exps...)
		case "quick":
			for _, e := range exps {
				if !e.heavy {
					selected = append(selected, e)
				}
			}
		default:
			e, ok := byName[a]
			if !ok {
				fmt.Fprintf(stderr, "prosper-experiments: unknown experiment %q\n\n", a)
				printRegistry(stderr, exps)
				fmt.Fprintln(stderr, "\n(run 'prosper-experiments -list' to see this registry again)")
				return 2
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now() //prosperlint:ignore wallclock host metric: per-experiment wall time is stderr progress only, not part of the table
		tb := e.run()
		if *jsonOut {
			if err := tb.WriteJSON(stdout); err != nil {
				return fail(stderr, err, 0)
			}
		} else {
			fmt.Fprintln(stdout, tb.String())
			if *chartOut {
				if ch := chartFor(e.name, tb); ch != nil && ch.NumRows() > 0 {
					fmt.Fprintln(stdout, ch.String())
				}
			}
		}
		fmt.Fprintf(stderr, "[%s completed in %v wall time, %d workers]\n",
			e.name, time.Since(start).Round(time.Millisecond), *parallel) //prosperlint:ignore wallclock host metric: per-experiment wall time is stderr progress only, not part of the table
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, scale.Trace.WriteJSON); err != nil {
			return fail(stderr, err, 0)
		}
		fmt.Fprintf(stderr, "[trace written to %s — open it at https://ui.perfetto.dev]\n", *traceOut)
	}
	if *journeyOut != "" {
		if err := writeFile(*journeyOut, scale.Journal.WriteJSONL); err != nil {
			return fail(stderr, err, 0)
		}
		fmt.Fprintf(stderr, "[journey journal written to %s — explore it with prosper-journey]\n", *journeyOut)
	}
	return 0
}

// runCrashSweep crashes every persistence mechanism at `points` seeded
// cycles, recovers each surviving NVM image, and prints one summary line
// per mechanism. Violations are listed individually; any violation makes
// the exit status 1.
func runCrashSweep(stdout, stderr io.Writer, points int, seed int64, workers int) int {
	status := 0
	for _, mech := range crash.Mechanisms() {
		start := time.Now() //prosperlint:ignore wallclock host metric: sweep wall time is stderr progress only, verdicts come from sim state
		res, err := crash.Sweep(crash.Config{
			Mechanism: mech,
			Points:    points,
			Seed:      seed,
			Workers:   workers,
		})
		if err != nil {
			fmt.Fprintf(stderr, "prosper-experiments: crash sweep %s: %v\n", mech, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Summary())
		for _, v := range res.Violations() {
			fmt.Fprintf(stdout, "  VIOLATION at cycle %d (P=%d S=%d): %s\n", v.Cycle, v.Commit, v.Epoch, v.Violation)
			status = 1
		}
		fmt.Fprintf(stderr, "[crash-sweep %s completed in %v wall time, %d workers]\n",
			mech, time.Since(start).Round(time.Millisecond), workers) //prosperlint:ignore wallclock host metric: sweep wall time is stderr progress only, verdicts come from sim state
	}
	return status
}

// fail reports a non-nil err on stderr and returns the exit status that
// follows: 1, unless status already records an earlier failure.
func fail(stderr io.Writer, err error, status int) int {
	if err == nil {
		return status
	}
	fmt.Fprintln(stderr, "prosper-experiments:", err)
	if status == 0 {
		return 1
	}
	return status
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRegistry lists every experiment with its cost class, plus the two
// pseudo-targets.
func printRegistry(w io.Writer, exps []experiment) {
	fmt.Fprintln(w, "experiments (quick = seconds; heavy = minutes at default scale):")
	for _, e := range exps {
		marker := "quick"
		if e.heavy {
			marker = "heavy"
		}
		fmt.Fprintf(w, "  %-10s %s\n", e.name, marker)
	}
	fmt.Fprintf(w, "  %-10s every experiment\n", "all")
	fmt.Fprintf(w, "  %-10s every quick experiment (default)\n", "quick")
}

// chartFor maps each figure to its headline series for bar rendering.
func chartFor(name string, tb *stats.Table) *stats.Chart {
	switch name {
	case "fig1":
		return stats.ChartFromTable(tb, "stack fraction", "", "stack_total", "benchmark")
	case "fig3":
		return stats.ChartFromTable(tb, "normalized time (no SP awareness)", "x", "no_sp_aware", "benchmark", "mechanism")
	case "fig4":
		return stats.ChartFromTable(tb, "page/8B checkpoint-size reduction", "x", "reduction", "benchmark")
	case "fig8":
		return stats.ChartFromTable(tb, "normalized execution time", "x", "normalized_time", "benchmark", "mechanism")
	case "fig9":
		return stats.ChartFromTable(tb, "normalized execution time", "x", "normalized_time", "benchmark", "combination", "ssp_interval")
	case "fig10":
		return stats.ChartFromTable(tb, "mean checkpoint bytes", "B", "mean_ckpt_bytes", "benchmark", "granularity")
	case "fig11":
		return stats.ChartFromTable(tb, "mean checkpoint bytes", "B", "mean_ckpt_bytes", "benchmark", "interval")
	case "fig12":
		return stats.ChartFromTable(tb, "user-IPC speedup", "", "speedup", "benchmark", "granularity")
	case "fig13":
		return stats.ChartFromTable(tb, "bitmap loads", "", "bitmap_loads", "benchmark", "param", "value")
	case "tracking":
		return stats.ChartFromTable(tb, "normalized time", "x", "normalized_time", "benchmark", "technique")
	default:
		return nil
	}
}
