package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prosper/internal/crash"
	"prosper/internal/persist"
	"prosper/internal/runner"
)

// goldenSeeds are the seeds testdata/goldens.json covers. Other seeds
// are checked against invariants and run-to-run determinism only.
var goldenSeeds = []uint64{1, 2, 3}

//go:embed testdata/goldens.json
var goldensJSON []byte

// goldens maps workload → seed → op label → the op's expected outcome.
type goldens map[string]map[string]map[string]golden

// golden is one op's expected deterministic outcome: the run digest, or
// a sweep's per-point verdicts.
type golden struct {
	Digest   map[string]uint64 `json:"digest,omitempty"`
	Verdicts string            `json:"verdicts,omitempty"`
}

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/goldens.json: %w", err)
	}
	return g, nil
}

// goldenWorkload names the workload whose goldens an op is checked
// against: observed runs must reproduce the unobserved paper-10ms runs.
func goldenWorkload(name string) string {
	if name == "observed-10ms" {
		return "paper-10ms"
	}
	return name
}

// lookup returns the golden for one op, if the seed has goldens.
func (g goldens) lookup(workload string, seed uint64, label string) (golden, bool) {
	bySeed, ok := g[goldenWorkload(workload)]
	if !ok {
		return golden{}, false
	}
	byLabel, ok := bySeed[strconv.FormatUint(seed, 10)]
	if !ok {
		return golden{}, false
	}
	e, ok := byLabel[label]
	return e, ok
}

// hasSeed reports whether the workload has goldens at seed.
func (g goldens) hasSeed(workload string, seed uint64) bool {
	_, ok := g[goldenWorkload(workload)][strconv.FormatUint(seed, 10)]
	return ok
}

// digest flattens a run's deterministic simulation metrics: the same
// keys cmd/prosper-bench reports for each run.
func digest(r runner.RunStats) map[string]uint64 {
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

// diffDigest describes how got differs from want, or returns "".
func diffDigest(want, got map[string]uint64) string {
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		if wok != gok || w != g {
			diffs = append(diffs, fmt.Sprintf("%s want %d got %d", k, w, g))
		}
	}
	return strings.Join(diffs, ", ")
}

// runInvariants returns the exact-sum invariants a run broke: the pause
// causes must sum to the pause total, and per-component event counts,
// where counted, must sum to the events the engine fired.
func runInvariants(o runOutcome) []string {
	var bad []string
	var causes uint64
	for _, v := range o.stats.PauseCauses {
		causes += v
	}
	if causes != o.stats.PauseTotal {
		bad = append(bad, fmt.Sprintf("pause causes sum to %d, pause total is %d", causes, o.stats.PauseTotal))
	}
	if o.profiled {
		var events uint64
		for _, n := range o.stats.EventCounts {
			events += n
		}
		if events != o.stats.EventsFired {
			bad = append(bad, fmt.Sprintf("component event counts sum to %d, engine fired %d", events, o.stats.EventsFired))
		}
	}
	return bad
}

// verdicts encodes a sweep's per-point outcome — crash cycle, durable
// commits P, recovered epoch S, and whether recovery errored — one
// space-separated token per point.
func verdicts(r crash.Result) string {
	toks := make([]string, len(r.Points))
	for i, p := range r.Points {
		e := ""
		if p.Err != "" {
			e = "e"
		}
		toks[i] = fmt.Sprintf("%d:%d:%d%s", p.Cycle, p.Commit, p.Epoch, e)
	}
	return strings.Join(toks, " ")
}

// sweepFailures counts the points of a sweep that failed: every point
// with a recovery violation, plus every point whose verdict differs from
// the golden one (want == "" skips the golden comparison).
func sweepFailures(r crash.Result, want string) (failed int, why []string) {
	bad := make([]bool, len(r.Points))
	for i, p := range r.Points {
		if p.Violation != "" {
			bad[i] = true
			why = append(why, fmt.Sprintf("%s point %d (cycle %d): %s", r.Mechanism, i, p.Cycle, p.Violation))
		}
	}
	if want != "" {
		wantToks := strings.Fields(want)
		gotToks := strings.Fields(verdicts(r))
		if len(wantToks) != len(gotToks) {
			why = append(why, fmt.Sprintf("%s: %d points, golden has %d", r.Mechanism, len(gotToks), len(wantToks)))
			for i := range bad {
				bad[i] = true
			}
		} else {
			for i := range gotToks {
				if gotToks[i] != wantToks[i] {
					bad[i] = true
					why = append(why, fmt.Sprintf("%s point %d: verdict %s, golden %s", r.Mechanism, i, gotToks[i], wantToks[i]))
				}
			}
		}
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return failed, why
}
