package runner

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// testSpec is a small but non-trivial run: a seeded random writer with
// Prosper stack persistence and periodic checkpoints, so distinct seeds
// yield distinct dirty footprints.
func testSpec(name string, seed uint64) Spec {
	return Spec{
		Name: name,
		Prog: func() workload.Program {
			return workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 128})
		},
		StackMech:   persist.NewProsper(persist.ProsperConfig{}),
		Checkpoint:  true,
		Interval:    50 * sim.Microsecond,
		Checkpoints: 2,
		Seed:        seed,
	}
}

func TestExecutorDeterministicAcrossWorkerCounts(t *testing.T) {
	plan := Plan{Name: "det"}
	for i := 0; i < 4; i++ {
		plan.Specs = append(plan.Specs, testSpec("stream", uint64(i+1)))
	}
	serial, err := (&Executor{Workers: 1}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Executor{Workers: 4}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("spec %d: workers=1 and workers=4 disagree:\n%+v\n%+v", i, serial[i], parallel[i])
		}
	}
	// Distinct seeds must actually produce distinct runs, or the
	// comparison above proves nothing.
	if serial[0] == serial[1] {
		t.Fatal("seeds 1 and 2 produced identical stats; test workloads degenerate")
	}
}

func TestExecutorResultsInPlanOrder(t *testing.T) {
	plan := Plan{Name: "order"}
	names := []string{"a", "b", "c", "d", "e"}
	for i, n := range names {
		plan.Specs = append(plan.Specs, testSpec(n, uint64(i+1)))
	}
	var done atomic.Int32
	ex := &Executor{Workers: 3, OnDone: func(r Result) {
		if r.Err != nil {
			t.Errorf("spec %d: %v", r.Index, r.Err)
		}
		done.Add(1)
	}}
	res := ex.Execute(plan)
	if int(done.Load()) != len(names) {
		t.Fatalf("OnDone fired %d times, want %d", done.Load(), len(names))
	}
	for i, r := range res {
		if r.Index != i || r.Stats.Name != names[i] {
			t.Fatalf("result %d out of plan order: index=%d name=%q", i, r.Index, r.Stats.Name)
		}
		if r.Wall <= 0 {
			t.Fatalf("result %d: no wall time recorded", i)
		}
	}
}

func TestExecutorRecoversWorkerPanics(t *testing.T) {
	plan := Plan{
		Name: "panics",
		Specs: []Spec{
			testSpec("ok-before", 1),
			{Name: "boom", Label: "boom/nil-prog"}, // nil Prog panics in Run
			testSpec("ok-after", 2),
		},
	}
	res := (&Executor{Workers: 2}).Execute(plan)
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy specs errored: %v / %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil {
		t.Fatal("panicking spec reported no error")
	}
	for _, want := range []string{"boom/nil-prog", "panics", "spec 1"} {
		if !strings.Contains(res[1].Err.Error(), want) {
			t.Fatalf("panic error %q does not mention %q", res[1].Err, want)
		}
	}
	if _, err := (&Executor{Workers: 2}).Run(plan); err == nil {
		t.Fatal("Run did not surface the panic as an error")
	}
}

func TestForEachRunsAllAndRepanics(t *testing.T) {
	const n = 17
	var hits [n]atomic.Int32
	ForEach(4, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}

	var mu sync.Mutex
	ran := map[int]bool{}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ForEach swallowed the panic")
		}
		if !strings.Contains(r.(string), "iteration 3") {
			t.Fatalf("panic %q does not name iteration 3", r)
		}
		// The panic must not have cancelled the other iterations.
		for i := 0; i < 6; i++ {
			if i != 3 && !ran[i] {
				t.Fatalf("iteration %d never ran", i)
			}
		}
	}()
	ForEach(2, 6, func(i int) {
		if i == 3 {
			panic("kaboom")
		}
		mu.Lock()
		ran[i] = true
		mu.Unlock()
	})
}

// TestOpWindowPanicsWhenShort: a window the program cannot reach must
// fail loudly, naming the spec, instead of measuring a shorter op range
// than its comparison run.
func TestOpWindowPanicsWhenShort(t *testing.T) {
	sp := Spec{Name: "counter", Label: "fig12/counter/base", Prog: func() workload.Program {
		return workload.NewCounter(200)
	}}
	if ops, cycles := sp.OpWindow(100, 200); ops < 200 || cycles == 0 {
		t.Fatalf("reachable window measured %d ops in %d cycles", ops, cycles)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "fig12/counter/base") {
			t.Fatalf("unreachable window: recovered %v, want a panic naming the spec", r)
		}
	}()
	sp.OpWindow(100, 1_000_000)
}

// TestEngineDrains pins the contract the executor relies on: a spec's
// private engine processes every event scheduled inside its window, and
// sim.Engine.AssertDrained distinguishes a wound-down machine from one
// with abandoned work.
func TestEngineDrains(t *testing.T) {
	eng := sim.NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		eng.Schedule(sim.CompOther, sim.Time(i)*sim.Microsecond, func() { fired++ })
	}
	eng.Run()
	if fired != 10 {
		t.Fatalf("fired %d of 10", fired)
	}
	if err := eng.AssertDrained(); err != nil {
		t.Fatalf("drained engine reported pending work: %v", err)
	}
	eng.Schedule(sim.CompOther, sim.Microsecond, func() {})
	if err := eng.AssertDrained(); err == nil {
		t.Fatal("AssertDrained missed a pending event")
	}
}

// tracedPlanBytes runs the plan with fresh tracers allocated in plan
// order on the given worker count and returns the serialized trace.
func tracedPlanBytes(t *testing.T, workers int) []byte {
	t.Helper()
	tr := telemetry.NewTrace()
	plan := Plan{Name: "traced"}
	for i := 0; i < 4; i++ {
		sp := testSpec("stream", uint64(i+1))
		sp.Label = fmt.Sprintf("traced/seed%d", i+1)
		sp.Tracer = tr.NewTracer(sp.DisplayLabel())
		sp.SampleEvery = 20 * sim.Microsecond
		plan.Specs = append(plan.Specs, sp)
	}
	if _, err := (&Executor{Workers: workers}).Run(plan); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkerCounts is the -parallel half of the
// telemetry determinism guarantee: serialized trace bytes must be
// identical at 1 and 4 workers, because lanes are allocated in plan
// order before execution and each run only touches its own tracer.
func TestTraceDeterministicAcrossWorkerCounts(t *testing.T) {
	t1 := tracedPlanBytes(t, 1)
	t4 := tracedPlanBytes(t, 4)
	if !bytes.Equal(t1, t4) {
		t.Fatalf("trace bytes differ between workers=1 (%d B) and workers=4 (%d B)", len(t1), len(t4))
	}
	if len(t1) == 0 || !bytes.Contains(t1, []byte(`"ph":"X"`)) {
		t.Fatal("trace suspiciously empty; determinism check proves nothing")
	}
}

// TestTracingLeavesStatsUntouched: the tracer only observes. A traced
// checkpointing run reports the same RunStats as an untraced one; only
// the event totals differ, by the sampler ticker's own sim-owned events.
func TestTracingLeavesStatsUntouched(t *testing.T) {
	bare := testSpec("observed", 1)
	bare.Profile = true
	traced := bare
	tc := telemetry.NewTrace().NewTracer("observed")
	traced.Tracer = tc
	traced.SampleEvery = 20 * sim.Microsecond

	a, b := bare.Run(), traced.Run()
	if tc.Events() == 0 {
		t.Fatal("tracer recorded nothing; the comparison proves nothing")
	}
	for c := range a.EventCounts {
		if sim.Component(c) != sim.CompSim && a.EventCounts[c] != b.EventCounts[c] {
			t.Errorf("%v events: untraced %d, traced %d", sim.Component(c), a.EventCounts[c], b.EventCounts[c])
		}
	}
	if b.EventCounts[sim.CompSim] <= a.EventCounts[sim.CompSim] {
		t.Errorf("sim events: untraced %d, traced %d; want the ticker's events on top",
			a.EventCounts[sim.CompSim], b.EventCounts[sim.CompSim])
	}
	for _, r := range []*RunStats{&a, &b} {
		r.EventsFired, r.EventCounts, r.EventNanos = 0, [sim.NumComponents]uint64{}, [sim.NumComponents]int64{}
	}
	if a != b {
		t.Fatalf("tracing changed the run's stats:\nuntraced %+v\ntraced   %+v", a, b)
	}
}

// TestSpecProfileCounts pins the Spec.Profile contract: the
// per-component event counts cover every dispatched event (they sum
// exactly to EventsFired), they are identical across repeated runs, and
// an unprofiled spec leaves them zero.
func TestSpecProfileCounts(t *testing.T) {
	sp := testSpec("profiled", 1)
	sp.Profile = true
	a := sp.Run()
	var sum uint64
	for _, n := range a.EventCounts {
		sum += n
	}
	if sum == 0 {
		t.Fatal("profiled run recorded no events")
	}
	if sum != a.EventsFired {
		t.Fatalf("EventCounts sum to %d, want EventsFired = %d", sum, a.EventsFired)
	}
	b := sp.Run()
	if a.EventCounts != b.EventCounts {
		t.Fatalf("EventCounts differ across identical runs:\n%v\n--- vs ---\n%v", a.EventCounts, b.EventCounts)
	}

	sp.Profile = false
	c := sp.Run()
	if c.EventCounts != ([sim.NumComponents]uint64{}) {
		t.Fatalf("unprofiled run populated EventCounts: %v", c.EventCounts)
	}
	if c.EventsFired != a.EventsFired {
		t.Fatalf("profiling changed EventsFired: %d vs %d", c.EventsFired, a.EventsFired)
	}
}
