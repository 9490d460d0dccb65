package crash

import "testing"

// TestSharedRunMatchesLegacy is the sweep-equivalence gate: for every
// mechanism and both persistence domains, a sweep that images every
// crash point from one shared run must produce exactly the verdicts of
// a legacy sweep that replays every point from cycle zero — same
// cycles, same P and S, same errors, same violations. Taking a crash
// image must not disturb the run it is taken from; this test pins that
// the crash harness actually inherits that.
func TestSharedRunMatchesLegacy(t *testing.T) {
	// brokenfence rides along: its (expected, required) violations must
	// survive the shared run verbatim. It sweeps more points for the
	// same reason TestSweepCatchesPlantedBug does — sparse sweeps can
	// land only on cycles where the missing fence happens not to matter.
	for _, mech := range append(Mechanisms(), "brokenfence") {
		for _, adr := range []bool{false, true} {
			mech, adr := mech, adr
			t.Run(caseName(mech, adr), func(t *testing.T) {
				t.Parallel()
				points := sweepPoints(t, 16)
				if mech == "brokenfence" {
					points = sweepPoints(t, 48)
				}
				cfg := Config{Mechanism: mech, Points: points, Seed: 1, ADR: adr}
				shared, err := Sweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Legacy = true
				legacy, err := Sweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if legacy.Forked != 0 {
					t.Fatalf("legacy sweep imaged %d points from a shared run", legacy.Forked)
				}
				if shared.Forked != len(shared.Points) {
					t.Fatalf("default sweep imaged %d of %d points from its shared run", shared.Forked, len(shared.Points))
				}
				if len(shared.Points) != len(legacy.Points) {
					t.Fatalf("point counts differ: %d shared vs %d legacy", len(shared.Points), len(legacy.Points))
				}
				for i := range shared.Points {
					if shared.Points[i] != legacy.Points[i] {
						t.Errorf("point %d verdicts differ:\n  shared: %+v\n  legacy: %+v",
							i, shared.Points[i], legacy.Points[i])
					}
				}
				if mech == "brokenfence" && len(shared.Violations()) == 0 {
					t.Fatal("shared-run sweep reported zero violations for the deliberately fenceless mechanism")
				}
			})
		}
	}
}
