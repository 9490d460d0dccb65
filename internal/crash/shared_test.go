package crash

import (
	"bytes"
	"math/rand"
	"testing"

	"prosper/internal/kernel"
	"prosper/internal/mem"
)

// TestSharedRunMatchesLegacy is the sweep-equivalence gate: for every
// mechanism and both persistence domains, a sweep that replays every
// crash image from the golden run's persistence-domain journal must
// produce exactly the verdicts of a legacy sweep that simulates every
// point from cycle zero — same cycles, same P and S, same errors, same
// violations.
func TestSharedRunMatchesLegacy(t *testing.T) {
	// brokenfence rides along: its (expected, required) violations must
	// survive the journal replay verbatim. It sweeps more points for the
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
					t.Fatalf("legacy sweep imaged %d points without simulating them", legacy.Forked)
				}
				if shared.Forked != len(shared.Points) {
					t.Fatalf("default sweep replayed %d of %d points from its journal", shared.Forked, len(shared.Points))
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

// TestJournalImagesMatchCrashImage compares images, not verdicts: at
// every sampled crash point of every mechanism, brokenfence included,
// under both persistence domains, the image replayed from the golden
// run's journal must equal, page by page, the CrashImage a second run
// of the same spec leaves after RunUntil of that cycle.
func TestJournalImagesMatchCrashImage(t *testing.T) {
	for _, mech := range append(Mechanisms(), "brokenfence") {
		for _, adr := range []bool{false, true} {
			mech, adr := mech, adr
			t.Run(caseName(mech, adr), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Mechanism: mech, Points: sweepPoints(t, 32), Seed: 1, ADR: adr}.withDefaults()
				g, err := cfg.capture()
				if err != nil {
					t.Fatal(err)
				}
				pts := cfg.samplePoints(g, rand.New(rand.NewSource(cfg.Seed)))
				imgs := g.journal.Images(pts)
				k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
				if _, _, err := cfg.spawn(k); err != nil {
					t.Fatal(err)
				}
				for i, c := range pts {
					k.Eng.RunUntil(c)
					if addr, differ := imageDiff(imgs[i], k.Mach.CrashImage()); differ {
						t.Fatalf("point %d (cycle %d): journal image differs from the crash image at page %#x", i, c, addr)
					}
				}
			})
		}
	}
}

// TestRecordingLeavesRunUnchanged: journaling the persistence domain is
// a pure observer. A run that records must end with the stats dump and
// the crash image of a run that does not.
func TestRecordingLeavesRunUnchanged(t *testing.T) {
	const end = 600_000 // four 50 µs intervals: several commits
	for _, mech := range Mechanisms() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Mechanism: mech}.withDefaults()
			run := func(record bool) ([]byte, *mem.Storage) {
				k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
				if record {
					k.Mach.Domain.Record(k.Eng)
				}
				if _, _, err := cfg.spawn(k); err != nil {
					t.Fatal(err)
				}
				k.Eng.RunUntil(end)
				var buf bytes.Buffer
				k.DumpStats(&buf)
				return buf.Bytes(), k.Mach.CrashImage()
			}
			recStats, recImg := run(true)
			plainStats, plainImg := run(false)
			if !bytes.Equal(recStats, plainStats) {
				t.Errorf("recording changed the stats dump:\n%s\nvs unrecorded:\n%s", recStats, plainStats)
			}
			if addr, differ := imageDiff(recImg, plainImg); differ {
				t.Errorf("recording changed the final crash image at page %#x", addr)
			}
		})
	}
}
