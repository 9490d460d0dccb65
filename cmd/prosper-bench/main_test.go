package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickSuiteDeterministic runs the quick suite twice (serial and
// 4-way parallel) and asserts the deterministic sections are identical —
// the contract that makes -compare meaningful.
func TestQuickSuiteDeterministic(t *testing.T) {
	a := runSuite(true, 1)
	b := runSuite(true, 4)
	aj, _ := json.Marshal(a.Deterministic)
	bj, _ := json.Marshal(b.Deterministic)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("deterministic sections differ between workers=1 and workers=4:\n%s\n--- vs ---\n%s", aj, bj)
	}
	if len(a.Deterministic) == 0 {
		t.Fatal("quick suite produced no runs")
	}
	for name, m := range a.Deterministic {
		if m["user_ops"] == 0 {
			t.Errorf("%s: no user ops recorded", name)
		}
		if m["pause_count"] == 0 {
			t.Errorf("%s: no pauses recorded", name)
		}
		var causes uint64
		for k, v := range m {
			if strings.HasPrefix(k, "pause_") {
				switch k {
				case "pause_count", "pause_cycles", "pause_max", "pause_p50", "pause_p95", "pause_p99":
				default:
					causes += v
				}
			}
		}
		if causes != m["pause_cycles"] {
			t.Errorf("%s: pause causes sum %d != pause_cycles %d", name, causes, m["pause_cycles"])
		}
	}
}

// TestCompareSelfAndRegression writes a quick-suite baseline via run(),
// proves a self-compare exits zero, and proves an injected regression in
// one deterministic metric makes -compare exit non-zero and name the
// offending metric.
func TestCompareSelfAndRegression(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")

	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-out", baseline}, &out, &errb); code != 0 {
		t.Fatalf("baseline run exited %d: %s", code, errb.String())
	}

	out.Reset()
	if code := run([]string{"-quick", "-compare", baseline}, &out, &errb); code != 0 {
		t.Fatalf("self-compare exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "match") {
		t.Fatalf("self-compare did not report a match:\n%s", out.String())
	}

	// Inject a regression into one metric of the baseline.
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	var victim string
	for name := range rep.Deterministic {
		victim = name
		break
	}
	rep.Deterministic[victim]["user_ops"] += 12345
	doctored, _ := json.Marshal(rep)
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	code := run([]string{"-quick", "-compare", bad}, &out, &errb)
	if code == 0 {
		t.Fatalf("compare against doctored baseline exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "user_ops") {
		t.Fatalf("regression report missing metric name:\n%s", out.String())
	}

	// A generous tolerance must absorb the injected drift.
	out.Reset()
	if code := run([]string{"-quick", "-compare", bad, "-tolerance", "100"}, &out, &errb); code != 0 {
		t.Fatalf("compare with 100%% tolerance exited %d:\n%s", code, out.String())
	}
}

// TestCompareSuiteMismatch ensures a full-suite report cannot silently
// pass against a quick baseline.
func TestCompareSuiteMismatch(t *testing.T) {
	old := report{Schema: schemaVersion, Suite: "quick",
		Deterministic: map[string]map[string]uint64{}}
	cur := report{Schema: schemaVersion, Suite: "full",
		Deterministic: map[string]map[string]uint64{}}
	if problems := compare(old, cur, 0, 20); len(problems) == 0 {
		t.Fatal("suite mismatch not reported")
	}
}

// TestThroughputRatchet exercises the host-throughput gate: regressions
// beyond tolerance fail, improvements and in-tolerance noise pass, and a
// sim_cycles difference is flagged even when the rates look fine.
func TestThroughputRatchet(t *testing.T) {
	base := report{Schema: schemaVersion, Suite: "quick",
		Deterministic: map[string]map[string]uint64{},
		Throughput: throughputStats{
			SimCycles:       1_000_000,
			EventsFired:     50_000,
			AllocsPerMcycle: 100,
			BytesPerMcycle:  4096,
		}}
	cur := base

	if problems := compare(base, cur, 0, 20); len(problems) != 0 {
		t.Fatalf("identical throughput flagged: %v", problems)
	}

	cur.Throughput.AllocsPerMcycle = 150 // +50%
	problems := compare(base, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs_per_mcycle") {
		t.Fatalf("50%% alloc-rate regression not flagged: %v", problems)
	}
	if problems := compare(base, cur, 0, 60); len(problems) != 0 {
		t.Fatalf("60%% tolerance did not absorb +50%%: %v", problems)
	}

	cur.Throughput.AllocsPerMcycle = 10 // large improvement
	cur.Throughput.EventsFired = 1_000
	if problems := compare(base, cur, 0, 20); len(problems) != 0 {
		t.Fatalf("improvement flagged as regression: %v", problems)
	}

	cur = base
	cur.Throughput.EventsFired = 80_000 // +60%
	problems = compare(base, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "events_fired") {
		t.Fatalf("event-count regression not flagged: %v", problems)
	}

	cur = base
	cur.Throughput.SimCycles = 999_999
	problems = compare(base, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "sim_cycles") {
		t.Fatalf("sim_cycles mismatch not flagged: %v", problems)
	}

	// A pre-ratchet baseline (no host_throughput section) must not be
	// ratcheted against zeros; only its schema mismatch is reported.
	v1 := report{Schema: "prosper-bench/1", Suite: "quick",
		Deterministic: map[string]map[string]uint64{}}
	cur = base
	problems = compare(v1, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "schema mismatch") {
		t.Fatalf("pre-ratchet baseline: want only schema mismatch, got %v", problems)
	}
}

// TestBaselineContinuity pins the no-cycle-drift invariant of the event
// core and profiling refactors in the repository itself: the committed
// BENCH_0004.json (prosper-bench/1), BENCH_0006.json (prosper-bench/2),
// and BENCH_0007.json (prosper-bench/3) must all carry byte-identical
// deterministic sections.
func TestBaselineContinuity(t *testing.T) {
	read := func(name string) json.RawMessage {
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Deterministic json.RawMessage `json:"deterministic"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Deterministic) == 0 {
			t.Fatalf("%s: no deterministic section", name)
		}
		return rep.Deterministic
	}
	v1 := read("BENCH_0004.json")
	v2 := read("BENCH_0006.json")
	v3 := read("BENCH_0007.json")
	if !bytes.Equal(v1, v2) {
		t.Fatalf("deterministic sections diverged between BENCH_0004 and BENCH_0006:\n%s\n--- vs ---\n%s", v1, v2)
	}
	if !bytes.Equal(v2, v3) {
		t.Fatalf("deterministic sections diverged between BENCH_0006 and BENCH_0007:\n%s\n--- vs ---\n%s", v2, v3)
	}
}

// TestAttributionInvariant runs the pinned quick suite at -parallel 1
// and 4 and checks the host_attribution contract: the per-component
// event counts are identical for any worker count and sum exactly to
// events_fired (which itself equals the sum of each run's
// Engine.Fired()).
func TestAttributionInvariant(t *testing.T) {
	a := runSuite(true, 1)
	b := runSuite(true, 4)
	for _, rep := range []report{a, b} {
		var sum uint64
		for _, v := range rep.Attribution.EventCounts {
			sum += v
		}
		if sum != rep.Throughput.EventsFired {
			t.Fatalf("event_counts sum to %d, want events_fired = %d", sum, rep.Throughput.EventsFired)
		}
	}
	aj, _ := json.Marshal(a.Attribution.EventCounts)
	bj, _ := json.Marshal(b.Attribution.EventCounts)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("event_counts differ between workers=1 and workers=4:\n%s\n--- vs ---\n%s", aj, bj)
	}
	if a.Throughput.EventsFired != b.Throughput.EventsFired {
		t.Fatalf("events_fired differ between workers=1 and workers=4: %d vs %d",
			a.Throughput.EventsFired, b.Throughput.EventsFired)
	}
}

// TestCompareAttributionRegression proves a drifted per-component event
// count fails -compare exactly (no tolerance), and that a pre-schema-3
// baseline without the section is skipped rather than compared against
// an empty map.
func TestCompareAttributionRegression(t *testing.T) {
	base := report{Schema: schemaVersion, Suite: "quick",
		Deterministic: map[string]map[string]uint64{},
		Throughput:    throughputStats{SimCycles: 1_000_000, EventsFired: 100},
		Attribution: attributionStats{
			EventCounts: map[string]uint64{"mem": 60, "cache": 40},
		}}
	cur := base
	if problems := compare(base, cur, 0, 20); len(problems) != 0 {
		t.Fatalf("identical attribution flagged: %v", problems)
	}

	cur.Attribution = attributionStats{EventCounts: map[string]uint64{"mem": 61, "cache": 40}}
	problems := compare(base, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "event_counts.mem") {
		t.Fatalf("event-count drift not flagged exactly: %v", problems)
	}

	cur.Attribution = attributionStats{EventCounts: map[string]uint64{"mem": 60}}
	problems = compare(base, cur, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "event_counts.cache missing") {
		t.Fatalf("missing component not flagged: %v", problems)
	}

	// Schema-2 baseline: no attribution section, no spurious findings
	// beyond the schema mismatch.
	v2 := base
	v2.Schema = "prosper-bench/2"
	v2.Attribution = attributionStats{}
	problems = compare(v2, base, 0, 20)
	if len(problems) != 1 || !strings.Contains(problems[0], "schema mismatch") {
		t.Fatalf("schema-2 baseline: want only schema mismatch, got %v", problems)
	}
}

// TestCLIDeterministicAcrossParallel exercises the full CLI path (flag
// parsing, suite run, -out serialization) at two worker counts and
// byte-compares the "deterministic" JSON sections as written to disk.
// TestQuickSuiteDeterministic covers the in-process structs; this test
// pins the artifact CI actually archives and diffs.
func TestCLIDeterministicAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	var sections [][]byte
	for _, workers := range []string{"1", "3"} {
		path := filepath.Join(dir, "bench-p"+workers+".json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-parallel", workers, "-out", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d\nstderr: %s", workers, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Deterministic json.RawMessage `json:"deterministic"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("-parallel %s: report is not JSON: %v", workers, err)
		}
		if len(rep.Deterministic) == 0 {
			t.Fatalf("-parallel %s: report has no deterministic section", workers)
		}
		sections = append(sections, rep.Deterministic)
	}
	if !bytes.Equal(sections[0], sections[1]) {
		t.Errorf("deterministic sections differ between -parallel 1 and -parallel 3:\n%s\n--- vs ---\n%s",
			sections[0], sections[1])
	}
}
