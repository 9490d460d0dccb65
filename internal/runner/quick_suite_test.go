package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// quickSuiteSpecs is the pinned quick suite. Its specs (workload,
// mechanisms, interval, checkpoints, warmup, seed) are part of the
// golden's contract: changing any of them invalidates
// testdata/quick_suite.json.
func quickSuiteSpecs() []Spec {
	params := workload.GapbsPR()
	prog := func() workload.Program { return workload.NewApp(params) }
	// The SSP row puts SSP on both stack and heap: its checkpoint and
	// consolidation walk page maps, so a map-order leak into the timed
	// NVM traffic moves this row's cycles.
	ssp := persist.NewSSP(persist.SSPConfig{})
	mechs := []struct {
		name    string
		factory persist.Factory
		heap    persist.Factory
	}{
		{"prosper", persist.NewProsper(persist.ProsperConfig{}), nil},
		{"dirtybit", persist.NewDirtybit(persist.DirtybitConfig{}), nil},
		{"ssp+ssp-heap", ssp, ssp},
	}
	const interval = 100 * sim.Microsecond
	var specs []Spec
	for _, m := range mechs {
		specs = append(specs, Spec{
			Name:        params.Name,
			Label:       params.Name + "/" + m.name,
			Prog:        prog,
			StackMech:   m.factory,
			HeapMech:    m.heap,
			Checkpoint:  true,
			Interval:    interval,
			Checkpoints: 4,
			Warmup:      interval / 2,
			Seed:        1,
			Profile:     true,
		})
	}
	return specs
}

// quickSuite is the golden's schema: only facts that are byte-for-byte
// reproducible on any host and at any worker count. encoding/json sorts
// map keys, so the encoding is deterministic too.
type quickSuite struct {
	// Deterministic maps "bench/mechanism" to integral simulation metrics.
	Deterministic map[string]map[string]uint64 `json:"deterministic"`
	SimCycles     uint64                       `json:"sim_cycles"`
	EventsFired   uint64                       `json:"events_fired"`
	// EventCounts is keyed by sim.Component name and sums to EventsFired.
	EventCounts map[string]uint64 `json:"event_counts"`
}

// quickMetrics flattens one run's deterministic simulation metrics.
func quickMetrics(r RunStats) map[string]uint64 {
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

// runQuickSuite executes the pinned suite at the given worker count,
// checks the per-run invariants, and assembles the golden's view of it.
func runQuickSuite(t *testing.T, workers int) quickSuite {
	t.Helper()
	specs := quickSuiteSpecs()
	res, err := (&Executor{Workers: workers}).Run(Plan{Name: "quick-suite", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	qs := quickSuite{Deterministic: map[string]map[string]uint64{}, EventCounts: map[string]uint64{}}
	var counts [sim.NumComponents]uint64
	for i, sp := range specs {
		r := res[i]
		name := sp.DisplayLabel()
		if r.UserOps == 0 {
			t.Errorf("workers=%d %s: no user ops recorded", workers, name)
		}
		if r.PauseCount == 0 {
			t.Errorf("workers=%d %s: no pauses recorded", workers, name)
		}
		var causes uint64
		for _, v := range r.PauseCauses {
			causes += v
		}
		if causes != r.PauseTotal {
			t.Errorf("workers=%d %s: pause causes sum %d != pause_cycles %d", workers, name, causes, r.PauseTotal)
		}
		var events uint64
		for c, n := range r.EventCounts {
			events += n
			counts[c] += n
		}
		if events != r.EventsFired {
			t.Errorf("workers=%d %s: event_counts sum %d != events_fired %d", workers, name, events, r.EventsFired)
		}
		qs.Deterministic[name] = quickMetrics(r)
		qs.SimCycles += uint64(r.SimEnd)
		qs.EventsFired += r.EventsFired
	}
	for _, c := range sim.Components() {
		qs.EventCounts[c.String()] = counts[c]
	}
	return qs
}

// flatten maps every number in a quickSuite to a dotted path such as
// "gapbs_pr/prosper.user_ops" or "event_counts.mem".
func (qs quickSuite) flatten() map[string]uint64 {
	flat := map[string]uint64{"sim_cycles": qs.SimCycles, "events_fired": qs.EventsFired}
	for run, m := range qs.Deterministic {
		for k, v := range m {
			flat[run+"."+k] = v
		}
	}
	for c, v := range qs.EventCounts {
		flat["event_counts."+c] = v
	}
	return flat
}

// diffQuickSuite names every number that differs between the golden and
// the current run, in sorted order.
func diffQuickSuite(want, got quickSuite) []string {
	w, g := want.flatten(), got.flatten()
	keys := make([]string, 0, len(w)+len(g))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		wv, inW := w[k]
		gv, inG := g[k]
		switch {
		case !inG:
			diffs = append(diffs, fmt.Sprintf("%s: golden %d, missing from current run", k, wv))
		case !inW:
			diffs = append(diffs, fmt.Sprintf("%s: current %d, absent from golden", k, gv))
		case wv != gv:
			diffs = append(diffs, fmt.Sprintf("%s: golden %d, current %d", k, wv, gv))
		}
	}
	return diffs
}

// TestQuickSuiteGolden is the simulator's determinism contract: the
// pinned quick suite must reproduce testdata/quick_suite.json byte for
// byte at 1 and 4 workers. Any difference is a behaviour change; after
// an intentional one, replace the golden with the JSON the failure
// prints.
func TestQuickSuiteGolden(t *testing.T) {
	const path = "testdata/quick_suite.json"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want quickSuite
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, workers := range []int{1, 4} {
		got := runQuickSuite(t, workers)
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, '\n')
		if bytes.Equal(enc, golden) {
			continue
		}
		diffs := diffQuickSuite(want, got)
		if len(diffs) == 0 {
			diffs = []string{"every number matches; only the formatting differs"}
		}
		t.Errorf("workers=%d: quick suite differs from %s:\n  %s\ncurrent JSON:\n%s",
			workers, path, strings.Join(diffs, "\n  "), enc)
	}
}
