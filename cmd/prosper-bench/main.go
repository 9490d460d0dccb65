// Command prosper-bench runs a pinned benchmark suite on the simulated
// machine and emits a machine-readable report for regression tracking.
//
// Usage:
//
//	prosper-bench [-quick] [-out FILE] [-parallel n]
//	prosper-bench -compare OLD.json [-tolerance pct] [-quick] [-parallel n]
//
// The report has four sections. "deterministic" holds simulation
// metrics (user ops/cycles and the IPC proxy, checkpoint counts and
// bytes, and the checkpoint-pause distribution with its quantiles) —
// these are byte-for-byte reproducible for a given suite on any machine
// and any -parallel value, so every out-of-tolerance difference against
// a baseline is a real behavior change. "host_throughput" tracks how
// efficiently the simulator itself runs: simulated kilocycles per
// wall-second (informational), and heap allocations/bytes per simulated
// megacycle, which are stable enough across hosts to ratchet — -compare
// fails when they regress beyond -throughput-tolerance percent, while
// improvements always pass. "host_attribution" decomposes the suite's
// dispatched events by owning simulated component (sim.Component): the
// per-component event counts are deterministic — they sum exactly to
// events_fired and -compare checks them exactly — while the
// per-component wall-time shares are informational. "host_nondeterministic"
// holds raw wall-clock time and allocation totals: useful for
// eyeballing, excluded from -compare entirely because they vary run to
// run.
//
// -compare loads a previous report and exits non-zero if any
// deterministic metric drifted beyond -tolerance percent (default 0:
// exact match), if the allocation-throughput ratchet regressed, or if
// the two reports cover different runs. Compare like-for-like: a -quick
// run against a -quick baseline (the committed BENCH_0007.json is the
// -quick suite; BENCH_0004.json and BENCH_0006.json are the same suite
// in earlier schemas, kept so the deterministic sections can be diffed
// across the event-core and profiling refactors).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"prosper/internal/crash"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

const schemaVersion = "prosper-bench/3"

// report is the serialized benchmark outcome. encoding/json marshals
// maps with sorted keys, so the emitted bytes are deterministic for the
// deterministic section.
type report struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	// Deterministic maps "bench/mechanism" to integral simulation
	// metrics. Identical for every run of the same binary and suite.
	Deterministic map[string]map[string]uint64 `json:"deterministic"`
	// Throughput tracks simulator efficiency; -compare ratchets the
	// allocation-rate metrics (see compare) and exact-checks sim_cycles.
	Throughput throughputStats `json:"host_throughput"`
	// Attribution decomposes dispatched events by owning component;
	// -compare exact-checks the event counts (deterministic) and ignores
	// the wall shares.
	Attribution attributionStats `json:"host_attribution"`
	// Host metrics vary run to run; -compare ignores this section.
	Host hostStats `json:"host_nondeterministic"`
}

// throughputStats normalizes host cost by simulated work, which is what
// makes it comparable across commits: sim_cycles is deterministic,
// events_fired is deterministic per binary (batching optimizations may
// lower it), and the per-megacycle allocation rates divide host totals
// by deterministic work so they are stable enough to gate on.
// kcycles_per_sec depends on raw wall-clock and is never compared.
type throughputStats struct {
	Note            string  `json:"note"`
	SimCycles       uint64  `json:"sim_cycles"`
	EventsFired     uint64  `json:"events_fired"`
	KCyclesPerSec   float64 `json:"kcycles_per_sec"`
	AllocsPerMcycle float64 `json:"allocs_per_mcycle"`
	BytesPerMcycle  float64 `json:"bytes_per_mcycle"`
}

// attributionStats is the per-component decomposition of the suite's
// dispatched events. EventCounts (keyed by sim.Component name) is on the
// deterministic side of the contract: byte-identical across runs and
// -parallel values, summing exactly to host_throughput.events_fired.
// WallSharePct spreads batched host time over components and varies run
// to run.
type attributionStats struct {
	Note         string             `json:"note"`
	EventCounts  map[string]uint64  `json:"event_counts"`
	WallSharePct map[string]float64 `json:"wall_share_pct"`
}

type hostStats struct {
	Note       string `json:"note"`
	WallMillis int64  `json:"wall_ms"`
	HeapAllocs uint64 `json:"heap_allocs"`
	HeapBytes  uint64 `json:"heap_bytes"`
	// The crash-sweep pair times the same seeded sweep with crash points
	// forked from golden commit snapshots (the default) and with the
	// legacy replay-from-zero path. Both are wall-clock and excluded
	// from -compare; forking exists to make sweeps cheaper, and this is
	// where to eyeball that it still does (the verdict equivalence
	// itself is gated by internal/crash's TestForkedSweepMatchesLegacy).
	SweepNote         string `json:"sweep_note"`
	SweepForkedMillis int64  `json:"sweep_forked_wall_ms"`
	SweepLegacyMillis int64  `json:"sweep_legacy_wall_ms"`
}

// suite returns the pinned run plan. The specs (workloads, mechanisms,
// intervals, seeds) are part of the benchmark contract: changing any of
// them invalidates committed baselines.
func suite(quick bool) (string, []runner.Spec) {
	type mech struct {
		name    string
		factory persist.Factory
	}
	var (
		name     string
		benches  []workload.AppParams
		mechs    []mech
		interval sim.Time
		ckpts    int
	)
	if quick {
		name = "quick"
		benches = []workload.AppParams{workload.GapbsPR()}
		mechs = []mech{
			{"prosper", persist.NewProsper(persist.ProsperConfig{})},
			{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
		}
		interval, ckpts = 100*sim.Microsecond, 4
	} else {
		name = "full"
		benches = []workload.AppParams{workload.GapbsPR(), workload.G500SSSP(), workload.YcsbMem()}
		mechs = []mech{
			{"prosper", persist.NewProsper(persist.ProsperConfig{})},
			{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{})},
			{"ssp-10us", persist.NewSSP(persist.SSPConfig{ConsolidationInterval: 10 * sim.Microsecond})},
		}
		interval, ckpts = 200*sim.Microsecond, 6
	}
	var specs []runner.Spec
	for _, params := range benches {
		params := params
		prog := func() workload.Program { return workload.NewApp(params) }
		for _, m := range mechs {
			specs = append(specs, runner.Spec{
				Name:        params.Name,
				Label:       params.Name + "/" + m.name,
				Prog:        prog,
				StackMech:   m.factory,
				Checkpoint:  true,
				Interval:    interval,
				Checkpoints: ckpts,
				Warmup:      interval / 2,
				Seed:        1,
				Profile:     true,
			})
		}
	}
	return name, specs
}

// metrics flattens one run's deterministic simulation metrics.
func metrics(r runner.RunStats) map[string]uint64 {
	ipcMilli := uint64(0)
	if r.UserCycles > 0 {
		ipcMilli = r.UserOps * 1000 / r.UserCycles
	}
	m := map[string]uint64{
		"user_ops":         r.UserOps,
		"user_cycles":      r.UserCycles,
		"ipc_milli":        ipcMilli,
		"checkpoints":      r.Checkpoints,
		"checkpoint_bytes": r.CheckpointBytes,
		"stack_ckpt_bytes": r.StackCkptBytes,
		"pause_count":      r.PauseCount,
		"pause_cycles":     r.PauseTotal,
		"pause_max":        r.PauseMax,
		"pause_p50":        r.PauseP50,
		"pause_p95":        r.PauseP95,
		"pause_p99":        r.PauseP99,
	}
	for c, v := range r.PauseCauses {
		m["pause_"+persist.Cause(c).String()] = v
	}
	return m
}

// runSuite executes the pinned plan and assembles the report.
func runSuite(quick bool, workers int) report {
	name, specs := suite(quick)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now() //prosperlint:ignore wallclock host metric: suite wall time goes in the report's host section, never into sim results
	ex := runner.Executor{Workers: workers}
	res, err := ex.Run(runner.Plan{Name: "bench-" + name, Specs: specs})
	if err != nil {
		panic(err)
	}
	wall := time.Since(start) //prosperlint:ignore wallclock host metric: suite wall time goes in the report's host section, never into sim results
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sweepForked, sweepLegacy := timeSweeps(workers)

	rep := report{
		Schema:        schemaVersion,
		Suite:         name,
		Deterministic: map[string]map[string]uint64{},
		Host: hostStats{
			Note:              "host-dependent; varies run to run; excluded from -compare",
			WallMillis:        wall.Milliseconds(),
			HeapAllocs:        ms1.Mallocs - ms0.Mallocs,
			HeapBytes:         ms1.TotalAlloc - ms0.TotalAlloc,
			SweepNote:         "same seeded crash sweep, snapshot-forked vs legacy replay-from-zero; wall-clock, excluded from -compare; forked should stay at or below legacy",
			SweepForkedMillis: sweepForked.Milliseconds(),
			SweepLegacyMillis: sweepLegacy.Milliseconds(),
		},
	}
	var simCycles, eventsFired uint64
	var counts [sim.NumComponents]uint64
	var nanos [sim.NumComponents]int64
	for i, sp := range specs {
		rep.Deterministic[sp.DisplayLabel()] = metrics(res[i])
		simCycles += uint64(res[i].SimEnd)
		eventsFired += res[i].EventsFired
		for c := range counts {
			counts[c] += res[i].EventCounts[c]
			nanos[c] += res[i].EventNanos[c]
		}
	}
	rep.Attribution = attributionStats{
		Note:         "event_counts is deterministic (sums to events_fired, exact-checked by -compare); wall_share_pct varies run to run",
		EventCounts:  map[string]uint64{},
		WallSharePct: map[string]float64{},
	}
	var totalNanos int64
	for _, n := range nanos {
		totalNanos += n
	}
	for _, c := range sim.Components() {
		rep.Attribution.EventCounts[c.String()] = counts[c]
		share := 0.0
		if totalNanos > 0 {
			share = round2(100 * float64(nanos[c]) / float64(totalNanos))
		}
		rep.Attribution.WallSharePct[c.String()] = share
	}
	rep.Throughput = throughputStats{
		Note:        "allocation rates per simulated megacycle are ratcheted by -compare; kcycles_per_sec is informational",
		SimCycles:   simCycles,
		EventsFired: eventsFired,
	}
	mcycles := float64(simCycles) / 1e6
	if mcycles > 0 {
		rep.Throughput.AllocsPerMcycle = round2(float64(rep.Host.HeapAllocs) / mcycles)
		rep.Throughput.BytesPerMcycle = round2(float64(rep.Host.HeapBytes) / mcycles)
	}
	if secs := wall.Seconds(); secs > 0 {
		rep.Throughput.KCyclesPerSec = round2(float64(simCycles) / 1e3 / secs)
	}
	return rep
}

// timeSweeps runs one pinned crash-sweep config through the
// snapshot-forked path and the legacy replay-from-zero path and returns
// the two wall times for the report's host section. It runs after the
// suite's memory-stat window so it cannot perturb the allocation
// ratchet. Sweep errors are fatal: the bench must not silently report
// a sweep that never ran.
func timeSweeps(workers int) (forked, legacy time.Duration) {
	cfg := crash.Config{Mechanism: "dirtybit", Points: 16, Seed: 1, Workers: workers}
	timeOne := func(c crash.Config) time.Duration {
		start := time.Now() //prosperlint:ignore wallclock host metric: sweep wall time goes in the report's host section, never into sim results
		if _, err := crash.Sweep(c); err != nil {
			panic(err)
		}
		return time.Since(start) //prosperlint:ignore wallclock host metric: sweep wall time goes in the report's host section, never into sim results
	}
	forked = timeOne(cfg)
	cfg.Legacy = true
	legacy = timeOne(cfg)
	return forked, legacy
}

// round2 keeps the throughput rates readable in committed baselines
// (two decimal places carry more precision than the ratchet needs).
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// compare reports every deterministic metric of new that drifted beyond
// tolerance percent from old, plus runs or metrics present on only one
// side, plus host-throughput ratchet violations: sim_cycles must match
// exactly (it is deterministic), and events_fired, allocs_per_mcycle and
// bytes_per_mcycle may improve freely but must not regress beyond
// throughputTolPct percent. An empty result means the reports agree.
func compare(old, cur report, tolerancePct, throughputTolPct float64) []string {
	var problems []string
	if old.Schema != cur.Schema {
		problems = append(problems, fmt.Sprintf("schema mismatch: baseline %q vs current %q", old.Schema, cur.Schema))
	}
	if old.Suite != cur.Suite {
		problems = append(problems, fmt.Sprintf("suite mismatch: baseline %q vs current %q (compare like-for-like)", old.Suite, cur.Suite))
	}
	var runs []string
	for name := range old.Deterministic {
		runs = append(runs, name)
	}
	sort.Strings(runs)
	for _, name := range runs {
		curM, ok := cur.Deterministic[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("run %q missing from current report", name))
			continue
		}
		oldM := old.Deterministic[name]
		var keys []string
		for k := range oldM {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			nv, ok := curM[k]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: metric %q missing from current report", name, k))
				continue
			}
			ov := oldM[k]
			if ov == nv {
				continue
			}
			base := float64(ov)
			if base == 0 {
				base = 1
			}
			deltaPct := (float64(nv) - float64(ov)) / base * 100
			if deltaPct < 0 {
				if -deltaPct <= tolerancePct {
					continue
				}
			} else if deltaPct <= tolerancePct {
				continue
			}
			problems = append(problems, fmt.Sprintf("REGRESSION %s.%s: baseline %d, current %d (%+.2f%%)", name, k, ov, nv, deltaPct))
		}
	}
	for name := range cur.Deterministic {
		if _, ok := old.Deterministic[name]; !ok {
			problems = append(problems, fmt.Sprintf("run %q absent from baseline", name))
		}
	}

	// Host-throughput ratchet. A prosper-bench/1 baseline predates the
	// ratchet and carries no host_throughput section; skip it rather than
	// compare against zeros (the schema mismatch above already flags the
	// cross-version comparison).
	if old.Throughput.SimCycles == 0 && old.Throughput.EventsFired == 0 {
		return problems
	}
	// sim_cycles is deterministic, so any difference is a behavior change
	// the deterministic section will also flag — but check it here too so
	// a ratchet comparison against the wrong baseline cannot silently
	// normalize by different work.
	if old.Throughput.SimCycles != cur.Throughput.SimCycles {
		problems = append(problems, fmt.Sprintf(
			"host_throughput.sim_cycles: baseline %d, current %d (deterministic; must match exactly)",
			old.Throughput.SimCycles, cur.Throughput.SimCycles))
	}
	ratchet := func(metric string, ov, nv float64) {
		if ov <= 0 || nv <= ov*(1+throughputTolPct/100) {
			return
		}
		problems = append(problems, fmt.Sprintf(
			"THROUGHPUT REGRESSION host_throughput.%s: baseline %.2f, current %.2f (+%.2f%%, tolerance %.2f%%)",
			metric, ov, nv, (nv-ov)/ov*100, throughputTolPct))
	}
	ratchet("events_fired", float64(old.Throughput.EventsFired), float64(cur.Throughput.EventsFired))
	ratchet("allocs_per_mcycle", old.Throughput.AllocsPerMcycle, cur.Throughput.AllocsPerMcycle)
	ratchet("bytes_per_mcycle", old.Throughput.BytesPerMcycle, cur.Throughput.BytesPerMcycle)

	// Per-component event counts are deterministic, so they compare
	// exactly, like sim_cycles. A pre-schema-3 baseline carries no
	// host_attribution section; skip rather than compare against an empty
	// map (the schema mismatch above already flags it).
	if len(old.Attribution.EventCounts) > 0 {
		var comps []string
		for name := range old.Attribution.EventCounts {
			comps = append(comps, name)
		}
		sort.Strings(comps)
		for _, name := range comps {
			ov := old.Attribution.EventCounts[name]
			nv, ok := cur.Attribution.EventCounts[name]
			if !ok {
				problems = append(problems, fmt.Sprintf("host_attribution.event_counts.%s missing from current report", name))
				continue
			}
			if ov != nv {
				problems = append(problems, fmt.Sprintf(
					"REGRESSION host_attribution.event_counts.%s: baseline %d, current %d (deterministic; must match exactly)",
					name, ov, nv))
			}
		}
		for name := range cur.Attribution.EventCounts {
			if _, ok := old.Attribution.EventCounts[name]; !ok {
				problems = append(problems, fmt.Sprintf("host_attribution.event_counts.%s absent from baseline", name))
			}
		}
	}
	return problems
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the small pinned suite (the committed baseline's suite)")
	out := fs.String("out", "", "write the JSON report to FILE (default stdout)")
	comparePath := fs.String("compare", "", "compare deterministic metrics against a previous report; non-zero exit on drift")
	tolerance := fs.Float64("tolerance", 0, "allowed per-metric drift for -compare, in percent")
	throughputTol := fs.Float64("throughput-tolerance", 20, "allowed host-throughput regression for -compare, in percent (improvements always pass)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent runs (results identical for any value)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prosper-bench: unexpected arguments %v\n", fs.Args())
		return 2
	}

	rep := runSuite(*quick, *parallel)

	if *comparePath != "" {
		raw, err := os.ReadFile(*comparePath)
		if err != nil {
			fmt.Fprintln(stderr, "prosper-bench:", err)
			return 2
		}
		var old report
		if err := json.Unmarshal(raw, &old); err != nil {
			fmt.Fprintf(stderr, "prosper-bench: parsing %s: %v\n", *comparePath, err)
			return 2
		}
		problems := compare(old, rep, *tolerance, *throughputTol)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(stdout, p)
			}
			fmt.Fprintf(stdout, "prosper-bench: %d deterministic metric(s) drifted from %s\n", len(problems), *comparePath)
			return 1
		}
		fmt.Fprintf(stdout, "prosper-bench: deterministic metrics match %s (tolerance %.2f%%)\n", *comparePath, *tolerance)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "prosper-bench:", err)
		return 2
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, "prosper-bench:", err)
			return 2
		}
	} else if *comparePath == "" {
		stdout.Write(enc)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
