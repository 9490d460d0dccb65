package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"prosper/internal/crash"
	"prosper/internal/persist"
	"prosper/internal/sim"
)

// config is one benchmark invocation.
type config struct {
	workload workloadDef
	seed     uint64
	seconds  float64
	// small runs the reduced, test-only workload size.
	small   bool
	goldens goldens
}

// metric is one reported number. JSON-reported metrics are exactly the
// ones BENCHMARK.json lists; the rest are printed in the text report.
type metric struct {
	name  string
	unit  string
	value float64
	// detail is an optional text-only annotation (a summary's tail).
	detail string
}

// report is the outcome of one invocation.
type report struct {
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   []metric // the JSON line's metrics
	extra     []metric // text report only
}

func (r *report) fail(n int, why ...string) {
	r.failed += n
	r.failures = append(r.failures, why...)
}

// checker verifies one invocation's op outcomes: exact-sum invariants,
// goldens where the seed has them, and that a repeated op reproduces
// its first outcome exactly.
type checker struct {
	cfg   config
	rep   *report
	first map[string]map[string]uint64
}

func newChecker(cfg config, rep *report) *checker {
	c := &checker{cfg: cfg, rep: rep, first: map[string]map[string]uint64{}}
	if cfg.goldens.hasSeed(cfg.workload.name, cfg.seed) {
		rep.notes = append(rep.notes, fmt.Sprintf("correctness: goldens for seed %d, invariants, determinism", cfg.seed))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("correctness: no goldens for seed %d (goldens cover seeds %v); invariants and determinism only", cfg.seed, goldenSeeds))
	}
	return c
}

// run checks one run outcome. Runs with the same label must agree
// exactly; golden selects whether the label also has a golden entry.
func (c *checker) run(o op, out runOutcome, golden bool) {
	c.rep.attempted++
	var why []string
	for _, b := range runInvariants(out) {
		why = append(why, o.label+": "+b)
	}
	d := digest(out.stats)
	if prev, ok := c.first[o.label]; ok {
		if diff := diffDigest(prev, d); diff != "" {
			why = append(why, fmt.Sprintf("%s: differs from its first run: %s", o.label, diff))
		}
	} else {
		c.first[o.label] = d
	}
	if golden {
		if g, ok := c.cfg.goldens.lookup(c.cfg.workload.name, c.cfg.seed, o.label); ok {
			if diff := diffDigest(g.Digest, d); diff != "" {
				why = append(why, fmt.Sprintf("%s: golden mismatch: %s", o.label, diff))
			}
		}
	}
	if len(why) > 0 {
		c.rep.fail(1, why...)
	}
}

// sweep checks one sweep: every point is an attempted operation.
func (c *checker) sweep(o op, r crash.Result) {
	c.rep.attempted += len(r.Points)
	want := ""
	if g, ok := c.cfg.goldens.lookup(c.cfg.workload.name, c.cfg.seed, o.label); ok {
		want = g.Verdicts
	}
	if n, why := sweepFailures(r, want); n > 0 {
		c.rep.fail(n, why...)
	}
}

// opSamples collects one op's repeated measurements.
type opSamples struct {
	wall, setup, window []float64 // reference ns
	rawWall             []float64 // wall-clock ns
	alloc, mallocs      []float64
	work                float64 // user ops in the window, or crash points
}

func (s *opSamples) add(c cost, work float64) {
	s.wall = append(s.wall, c.wallNS)
	s.setup = append(s.setup, c.setupNS)
	s.window = append(s.window, c.windowNS)
	s.rawWall = append(s.rawWall, c.rawWallNS)
	s.alloc = append(s.alloc, float64(c.allocBytes))
	s.mallocs = append(s.mallocs, float64(c.mallocs))
	s.work = work
}

// measureEndToEnd runs the workload's ops round-robin, untraced, until
// the time budget is spent and every op has run at least once, then
// reports each end-to-end metric from per-op medians.
func measureEndToEnd(cfg config) report {
	var rep report
	chk := newChecker(cfg, &rep)
	ops := cfg.workload.ops(cfg.seed, cfg.small)
	samples := make([]opSamples, len(ops))
	first := make([]runOutcome, len(ops))
	var liveHeap uint64
	budget := int64(cfg.seconds * 1e9)
	start := now()
	for i := 0; i < len(ops) || now()-start < budget; i++ {
		o := ops[i%len(ops)]
		s := &samples[i%len(ops)]
		runtime.GC()
		var c cost
		var work float64
		if o.sweep != nil {
			out, err := executeSweep(o)
			rep.attempted++ // the one-point set-up sweep
			if err != nil {
				rep.fail(1, err.Error())
				continue
			}
			chk.sweep(o, out.result)
			c, work = out.cost, float64(len(out.result.Points))
		} else {
			out, err := execute(o, cfg.seed, nil)
			if err != nil {
				rep.attempted++
				rep.fail(1, err.Error())
				continue
			}
			chk.run(o, out, true)
			if len(s.wall) == 0 {
				first[i%len(ops)] = out
			}
			c, work = out.cost, float64(out.stats.UserOps)
		}
		s.add(c, work)
		liveHeap = max(liveHeap, c.liveHeap)
	}

	var wall, rawWall, setup, window, work, alloc, mallocs float64
	runs := 0
	for _, s := range samples {
		if len(s.wall) == 0 {
			continue
		}
		wall += medianOf(s.wall)
		rawWall += medianOf(s.rawWall)
		setup += medianOf(s.setup)
		window += medianOf(s.window)
		work += s.work
		alloc += medianOf(s.alloc)
		mallocs += medianOf(s.mallocs)
		runs += len(s.wall)
	}
	opsPerS := 0.0
	if window > 0 {
		opsPerS = work / (window / 1e9)
	}
	rep.metrics = []metric{
		{name: "wall_s", unit: "s", value: wall / 1e9},
		{name: "setup_s", unit: "s", value: setup / 1e9},
		{name: "ops_per_s", unit: "1/s", value: opsPerS},
		{name: "alloc_mb", unit: "MB", value: alloc / 1e6},
		{name: "heap_allocs", unit: "count", value: mallocs},
		{name: "live_heap_mb", unit: "MB", value: float64(liveHeap) / 1e6},
	}
	rep.extra = append(rep.extra,
		metric{name: "raw_wall_s", unit: "s", value: rawWall / 1e9, detail: "wall_s's segments on the wall clock"},
		metric{name: "host_slowdown_x", unit: "x", value: rawWall / wall, detail: "wall-clock time / reference time: how slow the host ran"},
	)
	rep.notes = append(rep.notes, fmt.Sprintf("%d op executions of %d ops in %.1f s", runs, len(ops), float64(now()-start)/1e9))
	for i, o := range ops {
		s := samples[i]
		if len(s.wall) == 0 {
			continue
		}
		rep.extra = append(rep.extra, metric{
			name: "op." + o.label + ".wall_s", unit: "s", value: medianOf(s.wall) / 1e9,
			detail: fmt.Sprintf("n=%d setup %.3f s, window %.3f s, wall clock %.3f s", len(s.wall), medianOf(s.setup)/1e9, medianOf(s.window)/1e9, medianOf(s.rawWall)/1e9),
		})
	}
	if cfg.workload.name == "paper-10ms" && rep.failed == 0 {
		rep.extra = append(rep.extra, fig8Metrics(ops, first)...)
	}
	return rep
}

// paperFig8Overhead is the paper's average Prosper-vs-SSP-10µs
// execution-time advantage (Fig 8): the reference the simulated ratio
// is compared to.
const paperFig8Overhead = 2.1

// fig8Metrics reduces the paper-10ms runs to the simulated Fig 8 claims:
// Prosper's execution-time overhead over no persistence, and the error
// of the SSP-10µs-to-Prosper overhead ratio against the paper's 2.1×.
func fig8Metrics(ops []op, runs []runOutcome) []metric {
	userOps := map[string]float64{}
	for i, o := range ops {
		userOps[o.label] = float64(runs[i].stats.UserOps)
	}
	var apps []string
	for _, o := range ops {
		if strings.HasSuffix(o.label, "/base") {
			apps = append(apps, o.spec.Name)
		}
	}
	var prosperPct, ratio float64
	for _, app := range apps {
		base := userOps[app+"/base"]
		pro := base/userOps[app+"/prosper"] - 1
		ssp := base/userOps[app+"/ssp-10us"] - 1
		prosperPct += 100 * pro / float64(len(apps))
		ratio += ssp / pro / float64(len(apps))
	}
	errX := ratio / paperFig8Overhead
	if errX < 1 {
		errX = 1 / errX
	}
	return []metric{
		{name: "prosper_overhead_pct", unit: "%", value: prosperPct, detail: "simulated, mean over apps of base/prosper - 1"},
		{name: "fig8_ssp_vs_prosper_x", unit: "x", value: ratio, detail: "SSP-10us overhead / Prosper overhead (paper: 2.1)"},
		{name: "fig8_error_vs_paper_x", unit: "x", value: errX, detail: "max(r/2.1, 2.1/r)"},
	}
}

// measureLayers is the traced invocation: one untraced pass over the
// workload's runs, the same pass stepped event by event with every
// layer attributed, then timed probes of the layers a plain run does
// not exercise (snapshot save/resume, observers, crash sweeps).
func measureLayers(cfg config) report {
	var rep report
	chk := newChecker(cfg, &rep)
	ops := cfg.workload.ops(cfg.seed, cfg.small)
	// Sweep ops step their golden run, which has no golden of its own.
	golden := ops[0].sweep == nil

	var plainNS, tracedNS float64
	for _, o := range ops {
		runtime.GC()
		out, err := execute(o, cfg.seed, nil)
		if err != nil {
			rep.attempted++
			rep.fail(1, err.Error())
			continue
		}
		chk.run(o, out, golden)
		plainNS += out.wallNS
	}
	acct := newLayerAcct()
	for _, o := range ops {
		runtime.GC()
		out, err := execute(o, cfg.seed, acct)
		if err != nil {
			rep.attempted++
			rep.fail(1, err.Error())
			continue
		}
		chk.run(o, out, golden)
		tracedNS += out.wallNS
	}

	var snaps []snapshotCost
	seen := map[string]bool{}
	for _, o := range ops {
		if !o.spec.Checkpoint || o.spec.StackMech == nil {
			continue
		}
		name := o.spec.StackMech().Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		rep.attempted++
		c, err := probeSnapshot(o)
		if err != nil {
			rep.fail(1, err.Error())
			continue
		}
		snaps = append(snaps, c)
	}

	obs, err := probeObservers(ops[0], cfg.seed, chk)
	if err != nil {
		rep.attempted++
		rep.fail(1, err.Error())
	}

	rep.metrics = layerMetrics(acct, snaps, obs)
	overhead := 0.0
	if plainNS > 0 {
		overhead = 100 * (tracedNS/plainNS - 1)
	}
	rep.metrics = append(rep.metrics, metric{name: "trace.overhead_pct", unit: "%", value: overhead})
	rep.extra = append(rep.extra, epochExtras(acct)...)
	if ops[0].sweep != nil {
		extra, err := crashExtras(cfg, chk)
		if err != nil {
			rep.attempted++
			rep.fail(1, err.Error())
		}
		rep.extra = append(rep.extra, extra...)
	}
	return rep
}

// observeCost compares one run with and without the observers attached.
type observeCost struct {
	out             observerOutput
	overheadNSPerOp float64
}

// probeObservers runs o's spec once unobserved and once with tracer,
// journey recorder and profiler attached. The observed run must
// reproduce the unobserved one exactly.
func probeObservers(o op, seed uint64, chk *checker) (observeCost, error) {
	var cost observeCost
	bare := o
	bare.observe = false
	bare.label = o.label + "#unobserved"
	seen := o
	seen.observe = true
	seen.label = o.label + "#observed"
	runtime.GC()
	b, err := execute(bare, seed, nil)
	if err != nil {
		return cost, err
	}
	runtime.GC()
	s, err := execute(seen, seed, nil)
	if err != nil {
		return cost, err
	}
	chk.run(bare, b, false)
	chk.rep.attempted++
	if diff := diffDigest(digest(b.stats), digest(s.stats)); diff != "" {
		chk.rep.fail(1, fmt.Sprintf("%s: observers changed the simulation: %s", o.label, diff))
	}
	cost.out = s.obs
	if b.stats.UserOps > 0 {
		cost.overheadNSPerOp = s.windowNS/float64(s.stats.UserOps) - b.windowNS/float64(b.stats.UserOps)
	}
	return cost, nil
}

// layerComponents are the event owners reported per component.
var layerComponents = []sim.Component{
	sim.CompKernel, sim.CompCache, sim.CompVM, sim.CompMem,
	sim.CompProsper, sim.CompPersist, sim.CompWorkload,
}

func layerMetrics(a *layerAcct, snaps []snapshotCost, obs observeCost) []metric {
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	var events uint64
	var ns int64
	for c := range a.events {
		events += a.events[c]
		ns += a.ns[c]
	}
	ops := float64(a.userOps)
	ms := []metric{
		{name: "sim.user_ops", unit: "count", value: ops},
		{name: "sim.events_per_op", unit: "count", value: ratio(float64(events), ops)},
		{name: "sim.step_ns", unit: "ns", value: ratio(float64(ns), float64(a.steps))},
		{name: "sim.pending_mean", unit: "count", value: ratio(float64(a.pending), float64(a.steps))},
	}
	for _, c := range layerComponents {
		ms = append(ms,
			metric{name: c.String() + ".events", unit: "count", value: float64(a.events[c])},
			metric{name: c.String() + ".step_ns", unit: "ns", value: ratio(float64(a.ns[c]), float64(a.events[c]))},
			metric{name: c.String() + ".host_pct", unit: "%", value: 100 * ratio(float64(a.ns[c]), float64(a.loopNS))},
		)
	}
	d := a.dumps
	ms = append(ms,
		metric{name: "workload.next_ns", unit: "ns", value: ratio(float64(a.nextNS), float64(a.nextCalls))},
		metric{name: "workload.next_pct", unit: "%", value: 100 * ratio(float64(a.nextNS), float64(a.loopNS))},
		metric{name: "kernel.self_ns_per_op", unit: "ns", value: ratio(float64(a.ns[sim.CompKernel]-a.nextNS), ops)},
		metric{name: "kernel.page_faults", unit: "count", value: d.sum("kernel.", ".page_faults")},
		metric{name: "kernel.context_switches", unit: "count", value: d.sum("kernel.", ".context_switches")},
		metric{name: "persist.on_store_ns", unit: "ns", value: ratio(float64(a.storeNS), float64(a.stores))},
		epochMetric(a, "prosper"),
		epochMetric(a, "dirtybit"),
		metric{name: "persist.ckpt_bytes", unit: "bytes", value: d.sum("proc.", ".checkpoint_bytes")},
		metric{name: "persist.pause_cycles", unit: "cycles", value: d.sum("proc.", ".pause.cycles")},
	)
	for _, cause := range persist.CauseNames() {
		ms = append(ms, metric{name: "persist.pause_" + cause + "_cycles", unit: "cycles", value: d.sum("proc.", ".pause."+cause)})
	}
	sois := d.sum("tracker", ".prosper.sois")
	bitmapStores := d.sum("tracker", ".prosper.bitmap_stores")
	cacheRatio := func(level string) float64 {
		miss := d.sum(level, "."+level+".misses")
		return ratio(miss, miss+d.sum(level, "."+level+".hits"))
	}
	tlbMiss := d.sum("core", ".tlb.misses")
	ms = append(ms,
		metric{name: "prosper.sois", unit: "count", value: sois},
		metric{name: "prosper.bitmap_stores", unit: "count", value: bitmapStores},
		metric{name: "prosper.bitmap_loads", unit: "count", value: d.sum("tracker", ".prosper.bitmap_loads")},
		metric{name: "prosper.writebacks", unit: "count", value: d.sum("tracker", ".prosper.hwm_writebacks") +
			d.sum("tracker", ".prosper.evictions") + d.sum("tracker", ".prosper.flushes")},
		metric{name: "prosper.store_filter_ratio", unit: "ratio", value: ratio(bitmapStores, sois)},
		metric{name: "cache.l1d.miss_ratio", unit: "ratio", value: cacheRatio("l1d")},
		metric{name: "cache.l2.miss_ratio", unit: "ratio", value: cacheRatio("l2")},
		metric{name: "cache.l3.miss_ratio", unit: "ratio", value: cacheRatio("l3")},
		metric{name: "cache.mshr_stalls", unit: "count", value: d.sum("l", ".mshr_stalls")},
		metric{name: "cache.l1d.miss_latency_p50_cycles", unit: "cycles", value: d.median("l1d", ".miss_latency.p50")},
		metric{name: "vm.tlb_miss_ratio", unit: "ratio", value: ratio(tlbMiss, tlbMiss+d.sum("core", ".tlb.hits"))},
		metric{name: "vm.page_walks", unit: "count", value: d.sum("core", ".core.page_walks")},
		metric{name: "vm.walk_latency_p50_cycles", unit: "cycles", value: d.median("core", ".tlb.walk_latency.p50")},
		metric{name: "mem.dram.reads", unit: "count", value: d.sum("dram.", ".reads")},
		metric{name: "mem.nvm.reads", unit: "count", value: d.sum("nvm.", ".reads")},
		metric{name: "mem.nvm.writes", unit: "count", value: d.sum("nvm.", ".writes")},
		metric{name: "mem.nvm.buffer_stalls", unit: "count", value: d.sum("nvm.", ".buffer_stalls")},
		metric{name: "mem.nvm.bank_wait_p99_cycles", unit: "cycles", value: d.max("nvm.", ".bank_wait.p99")},
		metric{name: "mem.dram.read_wait_p99_cycles", unit: "cycles", value: d.max("dram.", ".read_wait.p99")},
		timingMetric("mem.crash_image_us", a.crashImageNS),
		timingMetric("kernel.fsck_us", a.fsckNS),
	)
	var save, resume, size []float64
	for _, s := range snaps {
		save = append(save, float64(s.saveNS)/1e3)
		resume = append(resume, float64(s.resumeNS)/1e3)
		size = append(size, float64(s.bytes))
	}
	ms = append(ms,
		metric{name: "snapshot.save_us", unit: "us", value: medianOf(save), detail: summarize(save).String()},
		metric{name: "snapshot.resume_us", unit: "us", value: medianOf(resume), detail: summarize(resume).String()},
		metric{name: "snapshot.bytes", unit: "bytes", value: medianOf(size)},
		metric{name: "telemetry.trace_events", unit: "count", value: float64(obs.out.traceEvents)},
		metric{name: "telemetry.trace_mb", unit: "MB", value: float64(obs.out.traceBytes) / 1e6},
		metric{name: "telemetry.write_ms", unit: "ms", value: float64(obs.out.traceWriteNS) / 1e6},
		metric{name: "journey.sampled", unit: "count", value: float64(obs.out.sampled)},
		metric{name: "journey.journal_mb", unit: "MB", value: float64(obs.out.journalBytes) / 1e6},
		metric{name: "journey.write_ms", unit: "ms", value: float64(obs.out.journalWriteNS) / 1e6},
		metric{name: "observe.overhead_ns_per_op", unit: "ns", value: obs.overheadNSPerOp},
	)
	return ms
}

// timingMetric reports host nanosecond samples in microseconds: the
// median, with the tail and sample count in the text report.
func timingMetric(name string, ns []float64) metric {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = v / 1e3
	}
	s := summarize(us)
	return metric{name: name, unit: "us", value: s.Median, detail: s.String()}
}

func epochMetric(a *layerAcct, mech string) metric {
	return timingMetric("persist.epoch_host_us."+mech, a.epochNS[mech])
}

// epochExtras reports the checkpoint-epoch host time of the mechanisms
// BENCHMARK.json does not list, for the text report.
func epochExtras(a *layerAcct) []metric {
	var names []string
	for n := range a.epochNS {
		if n != "prosper" && n != "dirtybit" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []metric
	for _, n := range names {
		out = append(out, epochMetric(a, n))
	}
	return out
}

// crashExtrasPoints sizes the forked-versus-legacy sweep comparison;
// legacy points replay from cycle zero, so it stays small.
const crashExtrasPoints = 64

// crashExtras times the same prosper sweep forked from golden commit
// snapshots and replayed from cycle zero (Legacy), per crash point.
func crashExtras(cfg config, chk *checker) ([]metric, error) {
	points := crashExtrasPoints
	if cfg.small {
		points = crashPoints(true)
	}
	base := crash.Config{Mechanism: "prosper", Points: points, Seed: int64(cfg.seed), Workers: 1}
	timed := func(c crash.Config) (crash.Result, float64, error) {
		t := now()
		r, err := crash.Sweep(c)
		return r, float64(now()-t) / 1e6, err
	}
	forked, forkedMS, err := timed(base)
	if err != nil {
		return nil, err
	}
	legacyCfg := base
	legacyCfg.Legacy = true
	legacy, legacyMS, err := timed(legacyCfg)
	if err != nil {
		return nil, err
	}
	for _, r := range []crash.Result{forked, legacy} {
		chk.rep.attempted += len(r.Points)
		if n, why := sweepFailures(r, ""); n > 0 {
			chk.rep.fail(n, why...)
		}
	}
	if verdicts(forked) != verdicts(legacy) {
		chk.rep.fail(1, "prosper: forked and legacy sweeps disagree")
	}
	perPoint := forkedMS / float64(len(forked.Points))
	legacyPerPoint := legacyMS / float64(len(legacy.Points))
	return []metric{
		{name: "crash.forked_frac", unit: "fraction", value: float64(forked.Forked) / float64(len(forked.Points))},
		{name: "crash.point_ms", unit: "ms", value: perPoint},
		{name: "crash.legacy_point_ms", unit: "ms", value: legacyPerPoint},
		{name: "crash.fork_speedup_x", unit: "x", value: legacyPerPoint / perPoint},
	}, nil
}
