// Command benchmark is the repository's end-to-end benchmark of the
// Prosper simulator: it runs one named workload, checks the simulated
// results, and prints every metric BENCHMARK.json lists.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 the workload's operations run round-robin, untraced,
// for S seconds (every operation at least once), and the end-to-end
// metrics are per-operation medians, with host time in reference
// seconds: wall time scaled by the speed of a fixed yardstick timed
// between segments of the work (yardstick.go). With --trace 1 the
// invocation runs the workload's simulations once untraced and once
// stepped event by event, and reports the per-layer metrics.
//
// The benchmark observes every layer from outside, through public
// functions only: it drives kernel.New, Spawn and RunFor itself (the
// phases of runner.Spec.Run), wraps each thread's workload.Program and
// each persist.Factory in timing shims, steps sim.Engine.Step with
// per-component event counting, and reads Kernel.DumpStatsJSON.
//
// Every run is checked: exact-sum invariants, determinism across
// repetitions, and, for seeds 1–3, the goldens in testdata/goldens.json.
// Any failed operation makes the exit code 1. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	// Every simulation is single-threaded, but each workload generator
	// hands its ops over an unbuffered channel from its own goroutine.
	// With a second P the two goroutines migrate between threads and a
	// run's host time varies by ±8% (ycsb_mem/base windows: 0.88–1.02 s
	// on two Ps, 0.61–0.64 s on one, on a 2-vCPU x86 VM), which
	// would hide any change smaller than that. One P keeps the handoff a
	// plain goroutine switch.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return runWith(args, g, false, stdout, stderr)
}

// runWith is run with the goldens and the workload size supplied, so
// tests can corrupt a golden or run at reduced size.
func runWith(args []string, g goldens, small bool, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for the workload's inputs (goldens cover 1-3)")
	seconds := fs.Float64("seconds", 10, "measurement budget; every operation runs at least once")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seed == 0 {
		fmt.Fprintln(stderr, "benchmark: --seed must be positive")
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, small: small, goldens: g}
	var rep report
	if *trace == 1 {
		rep = measureLayers(cfg)
	} else {
		rep = measureEndToEnd(cfg)
	}
	writeText(stdout, w, cfg, rep)
	if err := writeJSON(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// writeText prints the human-readable report: every metric, including
// the text-only ones, then notes and failures.
func writeText(w io.Writer, wd workloadDef, cfg config, rep report) {
	fmt.Fprintf(w, "# workload %s (seed %d): %s\n", wd.name, cfg.seed, wd.why)
	for _, group := range [][]metric{rep.metrics, rep.extra} {
		for _, m := range group {
			line := fmt.Sprintf("%-40s %14.6g %s", m.name, m.value, m.unit)
			if m.detail != "" {
				line += "  " + m.detail
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "# "+n)
	}
	const maxShown = 20
	for i, f := range rep.failures {
		if i == maxShown {
			fmt.Fprintf(w, "# FAIL ... %d more\n", len(rep.failures)-maxShown)
			break
		}
		fmt.Fprintln(w, "# FAIL "+f)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d\n", rep.attempted, rep.failed)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeJSON prints the result line: the final line of standard output.
func writeJSON(w io.Writer, rep report) error {
	res := jsonResult{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
