package experiments

import (
	"bytes"
	"testing"

	"prosper/internal/journey"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/workload"
)

// journeyPlan is a small four-mechanism plan used by the determinism
// tests: every stack mechanism of the main evaluation, on the micro
// workload, each producing sampled journeys.
func journeyPlan() []runner.Spec {
	prog := func() workload.Program {
		return workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 96})
	}
	return []runner.Spec{
		{Name: "prosper", Prog: prog, StackMech: persist.NewProsper(persist.ProsperConfig{}), Checkpoint: true},
		{Name: "dirtybit", Prog: prog, StackMech: persist.NewDirtybit(persist.DirtybitConfig{}), Checkpoint: true},
		{Name: "ssp", Prog: prog, StackMech: persist.NewSSP(persist.SSPConfig{}), Checkpoint: true},
		{Name: "romulus", Prog: prog, StackMech: persist.NewRomulus(), Checkpoint: true},
	}
}

// runJourneyPlan executes the plan with the given worker count and seed
// and returns the serialized journal bytes.
func runJourneyPlan(t *testing.T, workers int, seed uint64) []byte {
	t.Helper()
	s := TestScale()
	s.Workers = workers
	s.Seed = seed
	s.Journal = journey.NewJournal()
	s.JourneySampleRate = 64
	s.JourneySeed = seed
	s.runPlan("journeydet", journeyPlan())
	var buf bytes.Buffer
	if err := s.Journal.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJourneyJournalDeterministicAcrossWorkers pins the tentpole
// determinism contract: for each of three seeds, the serialized journey
// journal of a four-mechanism plan is byte-identical whether the plan
// ran on one worker or four — sampling is keyed on the access sequence
// number, recorders are allocated in plan order, and every recorded
// cycle is simulated time.
func TestJourneyJournalDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		serial := runJourneyPlan(t, 1, seed)
		parallel := runJourneyPlan(t, 4, seed)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("seed %d: journal differs between workers=1 and workers=4\n--- serial ---\n%s\n--- parallel ---\n%s",
				seed, serial, parallel)
		}
		// The journal must carry real content for the comparison to mean
		// anything, and must parse (which re-validates every journey of
		// every mechanism in the plan) back to the same bytes.
		p, err := journey.Parse(bytes.NewReader(serial))
		if err != nil {
			t.Fatalf("seed %d: journal does not parse: %v", seed, err)
		}
		var again bytes.Buffer
		if err := p.WriteJSONL(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial, again.Bytes()) {
			t.Fatalf("seed %d: parsed journal does not serialize back to the written bytes", seed)
		}
		if len(p.Recorders()) != 4 {
			t.Fatalf("seed %d: journal has %d runs, want 4", seed, len(p.Recorders()))
		}
		for _, r := range p.Recorders() {
			if _, _, finished := r.Counts(); finished == 0 {
				t.Fatalf("seed %d: run %s finished no journeys", seed, r.Name())
			}
		}
	}
}

// TestJourneySamplingLeavesStatsUntouched pins that enabling journey
// sampling does not perturb the measured results: the same plan run
// with no journal and with sampling on returns identical RunStats —
// journeys only observe the simulation, they never alter its timing.
func TestJourneySamplingLeavesStatsUntouched(t *testing.T) {
	plain := TestScale()
	base := plain.runPlan("journeyoff", journeyPlan())

	traced := TestScale()
	traced.Journal = journey.NewJournal()
	traced.JourneySampleRate = 64
	traced.JourneySeed = 1
	sampled := traced.runPlan("journeyoff", journeyPlan())

	if len(base) != len(sampled) {
		t.Fatalf("plan sizes differ: %d vs %d", len(base), len(sampled))
	}
	for i := range base {
		if base[i] != sampled[i] {
			t.Fatalf("run %d stats changed with journey sampling on:\n%+v\n--- vs ---\n%+v",
				i, base[i], sampled[i])
		}
	}
}
