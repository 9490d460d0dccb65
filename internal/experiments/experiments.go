// Package experiments contains one harness per table and figure of the
// paper's evaluation, each regenerating the corresponding rows/series on
// the simulated machine (see DESIGN.md §5 for the index and EXPERIMENTS.md
// for paper-vs-measured results).
//
// The paper's runs use 10 ms consistency intervals over minutes of
// execution; a dense software simulation cannot afford that, so every
// harness takes a Scale that shrinks the interval and the number of
// checkpoints proportionally (all mechanisms' per-interval work scales
// with the interval, preserving the comparisons; the scaling is recorded
// in EXPERIMENTS.md).
//
// Each figure declares a runner.Plan — a list of independent run specs —
// and hands it to a runner.Executor, which fans the specs out across a
// bounded worker pool (Scale.Workers). Results come back in plan order,
// so the rendered tables are byte-identical regardless of the worker
// count; only wall-clock time changes.
package experiments

import (
	"prosper/internal/journey"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// Scale bounds an experiment run.
type Scale struct {
	// Interval is the consistency/checkpoint interval (paper: 10 ms).
	Interval sim.Time
	// Checkpoints is how many intervals the measured window covers.
	Checkpoints int
	// Warmup runs before measurement starts.
	Warmup sim.Time
	// TraceOps bounds trace-driven analyses (Figs 1-4).
	TraceOps int
	// Seed seeds every run's workload.
	Seed uint64

	// Workers bounds how many of a figure's runs execute concurrently
	// (<= 0 means GOMAXPROCS). Results are identical for any value.
	Workers int
	// Log, when non-nil, receives one record per completed run (spec
	// label, simulated cycles, wall-clock time) as runs finish.
	Log *stats.RunLog

	// Trace, when non-nil, collects per-run sim-time telemetry: every
	// spec of every plan gets its own tracer lane, allocated in plan
	// order (before execution starts), so the serialized trace bytes are
	// identical for any Workers value.
	Trace *telemetry.Trace
	// SampleEvery is the telemetry occupancy sampling cadence in cycles
	// (0: the kernel's 10 µs default).
	SampleEvery sim.Time

	// Journal, when non-nil, samples per-access journeys on every run:
	// each spec gets its own recorder, allocated in plan order like the
	// tracer lanes, so the serialized journal is byte-identical for any
	// Workers value. JourneySampleRate is 1-in-N accesses (0 disables);
	// JourneySeed seeds the sequence-number hash.
	Journal           *journey.Journal
	JourneySampleRate uint64
	JourneySeed       uint64
}

// DefaultScale is the standard scaled-down configuration: 200 µs
// intervals (1/50 of the paper's 10 ms), 10 checkpoints.
func DefaultScale() Scale {
	return Scale{
		Interval:    200 * sim.Microsecond,
		Checkpoints: 10,
		Warmup:      100 * sim.Microsecond,
		TraceOps:    150_000,
		Seed:        1,
	}
}

// TestScale is a very small configuration for unit tests.
func TestScale() Scale {
	s := DefaultScale()
	s.Interval = 50 * sim.Microsecond
	s.Checkpoints = 3
	s.Warmup = 20 * sim.Microsecond
	s.TraceOps = 40_000
	return s
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Interval == 0 {
		s.Interval = d.Interval
	}
	if s.Checkpoints == 0 {
		s.Checkpoints = d.Checkpoints
	}
	if s.TraceOps == 0 {
		s.TraceOps = d.TraceOps
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// consolidationScale converts the paper's SSP consolidation-thread
// invocation intervals (10 µs / 100 µs / 1 ms against a 10 ms checkpoint
// interval) to the scaled run, preserving the ratio to the interval.
func (s Scale) consolidation(paperInterval sim.Time) sim.Time {
	scaled := paperInterval * s.Interval / (10 * sim.Millisecond)
	if scaled < 500 { // keep ticks meaningful (>0.16 µs)
		scaled = 500
	}
	return scaled
}

// bench is a named workload; prog builds one program per thread.
type bench struct {
	name string
	prog func() workload.Program
}

// mech is a named persistence mechanism under test.
type mech struct {
	name    string
	factory persist.Factory
}

// own fills the fields of sp that the scale owns: Interval and
// Checkpoints where sp leaves them zero (Fig 11 and the adaptive study
// set their own), and always Warmup and the seed. The segment sizes are
// runner.Spec's defaults. A nonempty figure name prefixes the label.
func (s Scale) own(figure string, sp runner.Spec) runner.Spec {
	if sp.Interval == 0 {
		sp.Interval = s.Interval
	}
	if sp.Checkpoints == 0 {
		sp.Checkpoints = s.Checkpoints
	}
	sp.Warmup = s.Warmup
	sp.Seed = s.Seed
	if figure != "" {
		sp.Label = figure + "/" + sp.DisplayLabel()
	}
	return sp
}

// runPlan executes the specs as one named plan on the scale's worker
// pool and returns stats in plan order. Each spec is first completed by
// own, then given its tracer lane and journey recorder, in plan order so
// the serialized trace and journal do not depend on the worker count. A
// panicking run is re-raised here, tagged with its spec label — the same
// crash a sequential loop would have produced, minus the runs that still
// completed.
func (s Scale) runPlan(figure string, specs []runner.Spec) []runner.RunStats {
	for i, sp := range specs {
		sp = s.own(figure, sp)
		if s.Trace != nil {
			sp.Tracer = s.Trace.NewTracer(sp.DisplayLabel())
			sp.SampleEvery = s.SampleEvery
		}
		if s.Journal != nil {
			sp.Journey = s.Journal.NewRecorder(sp.DisplayLabel(), s.JourneySampleRate, s.JourneySeed)
		}
		specs[i] = sp
	}
	ex := runner.Executor{Workers: s.Workers, OnDone: s.record}
	res, err := ex.Run(runner.Plan{Name: figure, Specs: specs})
	if err != nil {
		panic(err)
	}
	return res
}

// record forwards one completed run to the scale's RunLog, if any.
func (s Scale) record(r runner.Result) {
	if s.Log == nil || r.Err != nil {
		return
	}
	s.Log.Record(stats.RunRecord{
		Name:      r.Spec.DisplayLabel(),
		SimCycles: int64(r.Stats.SimEnd),
		Wall:      r.Wall,
	})
}

// apps returns the three application models of the main evaluation.
func apps() []workload.AppParams {
	return []workload.AppParams{workload.GapbsPR(), workload.G500SSSP(), workload.YcsbMem()}
}
