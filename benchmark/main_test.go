package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"prosper/internal/crash"
	"prosper/internal/journey"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/goldens.json from full-size runs of seeds 1-3 (several minutes)")

// benchmarkJSON is the repository's BENCHMARK.json, whose metric names
// and units the program must print exactly.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// invoke runs the command line at test size and parses its result line.
func invoke(t *testing.T, g goldens, args ...string) (int, jsonResult, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := runWith(args, g, true, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if code != 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s\n%s", err, out.String(), errb.String())
		}
	}
	return code, res, out.String()
}

// checkMetrics asserts the result carries exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, res jsonResult, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at test size, untraced and traced, and
// checks the printed metric sets against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the program's is %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, res, out := invoke(t, goldens{}, "--workload", w.name, "--seed", "1", "--seconds", "0", "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: exit %d, %+v\n%s", code, res, out)
			}
			checkMetrics(t, res, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			code, res, out = invoke(t, goldens{}, "--workload", w.name, "--seed", "1", "--trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: exit %d, %+v\n%s", code, res, out)
			}
			checkMetrics(t, res, b.PerLayer)
			if v := res.Metrics["kernel.self_ns_per_op"].Value; v < 0 {
				t.Errorf("kernel.self_ns_per_op = %g, want >= 0", v)
			}
		})
	}
}

// TestTracedTimesSumToLoop: the per-component step times of a stepped
// run add up to the stepping loop's wall time, so host_pct shares are a
// decomposition of that time, not a count share.
func TestTracedTimesSumToLoop(t *testing.T) {
	for _, w := range workloads {
		o := w.ops(1, true)[1]
		acct := newLayerAcct()
		if _, err := execute(o, 1, acct); err != nil {
			t.Fatal(err)
		}
		var sum int64
		var events uint64
		for c := range acct.ns {
			sum += acct.ns[c]
			events += acct.events[c]
		}
		if events != acct.steps || events == 0 {
			t.Errorf("%s: %d attributed events, %d steps", w.name, events, acct.steps)
		}
		if diff := float64(acct.loopNS-sum) / float64(acct.loopNS); diff < 0 || diff > 0.01 {
			t.Errorf("%s: component times sum to %d ns, loop took %d ns (%.2f%% apart)", w.name, sum, acct.loopNS, 100*diff)
		}
	}
}

// runnerSpec returns o's spec as runner.Spec.Run would execute it,
// with fresh observers for an observed op.
func runnerSpec(o op, seed uint64) runner.Spec {
	sp := o.spec
	if o.observe {
		sp.Tracer = telemetry.NewTrace().NewTracer(o.label)
		sp.Journey = journey.NewJournal().NewRecorder(o.label, journeyRate, seed)
		sp.Profile = true
	}
	return sp
}

// TestHarnessMatchesRunner: the benchmark's phase-driven harness yields
// exactly the RunStats runner.Spec.Run does for the same spec.
func TestHarnessMatchesRunner(t *testing.T) {
	for _, w := range workloads {
		for _, o := range w.ops(2, true) {
			got, err := execute(o, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := runnerSpec(o, 2).Run()
			got.stats.EventNanos, want.EventNanos = [sim.NumComponents]int64{}, [sim.NumComponents]int64{}
			if !reflect.DeepEqual(got.stats, want) {
				t.Errorf("%s/%s: harness\n%+v\nrunner\n%+v", w.name, o.label, got.stats, want)
			}
		}
	}
}

// TestTracedDigestMatches: stepping every event, wrapping programs and
// mechanisms, and timing crash images changes no simulated result.
func TestTracedDigestMatches(t *testing.T) {
	for _, w := range workloads {
		for _, o := range w.ops(3, true) {
			plain, err := execute(o, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := execute(o, 3, newLayerAcct())
			if err != nil {
				t.Fatal(err)
			}
			if d := diffDigest(digest(plain.stats), digest(traced.stats)); d != "" {
				t.Errorf("%s/%s: traced run differs: %s", w.name, o.label, d)
			}
			if bad := runInvariants(traced); len(bad) > 0 {
				t.Errorf("%s/%s: %v", w.name, o.label, bad)
			}
		}
	}
}

// TestObservedMatchesPaper: observers never perturb the simulation, so
// every observed-10ms run equals the paper-10ms run of the same label.
func TestObservedMatchesPaper(t *testing.T) {
	paper := map[string]op{}
	for _, o := range paperOps(1, true) {
		paper[o.label] = o
	}
	for _, o := range observedOps(1, true) {
		seen, err := execute(o, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := execute(paper[o.label], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffDigest(digest(bare.stats), digest(seen.stats)); d != "" {
			t.Errorf("%s: observed run differs: %s", o.label, d)
		}
		if seen.obs.traceEvents == 0 || seen.obs.sampled == 0 || seen.obs.journalBytes == 0 {
			t.Errorf("%s: observers recorded nothing: %+v", o.label, seen.obs)
		}
	}
}

// TestCorruptedGoldenFails: a golden that disagrees with the simulation
// is a failed operation and exit code 1, for runs and for sweeps.
func TestCorruptedGoldenFails(t *testing.T) {
	run := paperOps(1, true)[1]
	out, err := execute(run, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := digest(out.stats)
	d["user_ops"]++
	g := goldens{"paper-10ms": {"1": {run.label: {Digest: d}}}}
	for _, w := range []string{"paper-10ms", "observed-10ms"} {
		code, res, text := invoke(t, g, "--workload", w, "--seed", "1", "--seconds", "0")
		if code != 1 || res.Correct || res.Failed != 1 || !strings.Contains(text, "golden mismatch: user_ops") {
			t.Errorf("%s: exit %d, %+v\n%s", w, code, res, text)
		}
	}

	sweepOp := crashSweepOps(1, true)[0]
	r, err := crash.Sweep(*sweepOp.sweep)
	if err != nil {
		t.Fatal(err)
	}
	toks := strings.Fields(verdicts(r))
	toks[3] += "e"
	g = goldens{"crash-sweep": {"1": {sweepOp.label: {Verdicts: strings.Join(toks, " ")}}}}
	code, res, text := invoke(t, g, "--workload", "crash-sweep", "--seed", "1", "--seconds", "0")
	if code != 1 || res.Failed != 1 || !strings.Contains(text, "point 3: verdict") {
		t.Errorf("crash-sweep: exit %d, %+v\n%s", code, res, text)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-10ms", "--trace", "2"},
		{"--workload", "paper-10ms", "--seed", "0"},
		{"--workload", "paper-10ms", "extra"},
		{"--bogus"},
	} {
		if code, _, _ := invoke(t, goldens{}, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestGoldensCoverEveryOp: the committed goldens hold an entry for every
// full-size op at every golden seed.
func TestGoldensCoverEveryOp(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			for _, o := range w.ops(seed, false) {
				e, ok := g.lookup(w.name, seed, o.label)
				switch {
				case !ok:
					t.Errorf("%s seed %d: no golden for %s", w.name, seed, o.label)
				case o.sweep != nil && len(strings.Fields(e.Verdicts)) != o.sweep.Points:
					t.Errorf("%s seed %d: %s golden has %d verdicts", w.name, seed, o.label, len(strings.Fields(e.Verdicts)))
				case o.sweep == nil && len(e.Digest) == 0:
					t.Errorf("%s seed %d: %s golden has no digest", w.name, seed, o.label)
				}
			}
		}
	}
}

// TestUpdateGoldens regenerates testdata/goldens.json with -update.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the goldens")
	}
	g := goldens{}
	for _, w := range workloads {
		if goldenWorkload(w.name) != w.name {
			continue
		}
		g[w.name] = map[string]map[string]golden{}
		for _, seed := range goldenSeeds {
			byLabel := map[string]golden{}
			for _, o := range w.ops(seed, false) {
				if o.sweep != nil {
					r, err := crash.Sweep(*o.sweep)
					if err != nil {
						t.Fatal(err)
					}
					if n, why := sweepFailures(r, ""); n > 0 {
						t.Fatalf("%s: %v", o.label, why)
					}
					byLabel[o.label] = golden{Verdicts: verdicts(r)}
					continue
				}
				out, err := execute(o, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if bad := runInvariants(out); len(bad) > 0 {
					t.Fatalf("%s: %v", o.label, bad)
				}
				byLabel[o.label] = golden{Digest: digest(out.stats)}
			}
			g[w.name][strconv.FormatUint(seed, 10)] = byLabel
		}
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/goldens.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
