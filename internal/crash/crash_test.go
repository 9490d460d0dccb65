package crash

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// sweepPoints scales the per-mechanism point count down under -short.
func sweepPoints(t *testing.T, full int) int {
	if testing.Short() {
		return full / 4
	}
	return full
}

// caseName names a per-mechanism subtest; ADR cases carry an "-adr"
// suffix.
func caseName(mech string, adr bool) string {
	if adr {
		return mech + "-adr"
	}
	return mech
}

// TestSweepFindsNoViolations is the headline recovery property: across
// many crash points, spanning several checkpoint epochs and clustered
// around the commit windows, every mechanism recovers to a committed
// epoch with the exact committed execution position and stack contents,
// under both persistence domains.
func TestSweepFindsNoViolations(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, adr := range []bool{false, true} {
			mech, adr := mech, adr
			t.Run(caseName(mech, adr), func(t *testing.T) {
				cfg := Config{Mechanism: mech, Points: sweepPoints(t, 16), Seed: 1, ADR: adr}
				t.Logf("sweep %s (ADR %v): %d points, seed %d", mech, adr, cfg.Points, cfg.Seed)
				res, err := Sweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Log(res.Summary())
				for _, v := range res.Violations() {
					t.Errorf("cycle %d (P=%d S=%d): %s", v.Cycle, v.Commit, v.Epoch, v.Violation)
				}
			})
		}
	}
}

// TestSweepCatchesPlantedBug proves the harness can fail: a mechanism
// whose commit record races its payload (persist.NewBrokenFence) must
// produce at least one violation, or the sweep is checking nothing.
func TestSweepCatchesPlantedBug(t *testing.T) {
	cfg := Config{Mechanism: "brokenfence", Points: sweepPoints(t, 48), Seed: 1}
	t.Logf("sweep brokenfence: %d points, seed %d", cfg.Points, cfg.Seed)
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if len(res.Violations()) == 0 {
		t.Fatal("sweep reported zero violations for the deliberately fenceless mechanism")
	}
}

// TestCrashBeforeFirstCommit: with nothing durable yet, recovery must
// fail with a clean diagnostic and fsck must still pass — the harness
// treats any other outcome as a violation, checked here directly.
func TestCrashBeforeFirstCommit(t *testing.T) {
	cfg := Config{Mechanism: "prosper"}.withDefaults()
	k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
	if _, _, err := cfg.spawn(k); err != nil {
		t.Fatal(err)
	}
	// Well inside the first 50 µs interval: no checkpoint has started.
	k.Eng.RunUntil(20_000)
	img := k.Mach.CrashImage()
	if rep := kernel.Fsck(img); !rep.OK() {
		t.Fatalf("fsck before first commit: %v", rep.Problems)
	}
	fac, err := mechanism(cfg.Mechanism)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1, Storage: img}})
	_, err = k2.RecoverProcess(kernel.ProcessConfig{
		Name:         "sweep",
		StackMech:    fac,
		StackReserve: stackReserve,
		HeapSize:     heapSize,
	}, []workload.Program{workload.NewCounter(iterations)})
	if err == nil {
		t.Fatal("recovery fabricated a process with no durable checkpoint")
	}
	if !strings.Contains(err.Error(), "no register checkpoint") {
		t.Fatalf("unexpected recovery error: %v", err)
	}
}

// TestImagingLeavesRunUnchanged pins the assumption the journal
// comparison in TestJournalImagesMatchCrashImage rests on: imaging a
// run (RunUntil, then CrashImage) does not perturb the run the images
// are taken from. A run imaged at many cycles, including the same cycle
// twice, must end with the same stats dump and the same crash image as
// a run imaged only at the end, under both persistence domains (the ADR
// image also reads the domain's in-flight lines). Equal final images
// also show that two images at the same cycle agree byte for byte.
func TestImagingLeavesRunUnchanged(t *testing.T) {
	const end = 600_000 // four 50 µs intervals: several commits
	for _, adr := range []bool{false, true} {
		adr := adr
		t.Run(caseName("dirtybit", adr), func(t *testing.T) {
			cfg := Config{Mechanism: "dirtybit", ADR: adr}.withDefaults()
			run := func(cuts []sim.Time) ([]byte, *mem.Storage) {
				k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
				if _, _, err := cfg.spawn(k); err != nil {
					t.Fatal(err)
				}
				for _, c := range cuts {
					k.Eng.RunUntil(c)
					k.Mach.CrashImage()
				}
				k.Eng.RunUntil(end)
				img := k.Mach.CrashImage()
				var buf bytes.Buffer
				k.DumpStats(&buf)
				return buf.Bytes(), img
			}
			var cuts []sim.Time
			for c := sim.Time(1000); c < end; c += 2_999 {
				cuts = append(cuts, c)
			}
			cuts = append(cuts, end) // the final cut lands on an imaged cycle
			imagedStats, imagedImg := run(cuts)
			plainStats, plainImg := run(nil)
			if !bytes.Equal(imagedStats, plainStats) {
				t.Errorf("imaging %d times changed the stats dump:\n%s\nvs never imaged:\n%s",
					len(cuts), imagedStats, plainStats)
			}
			if addr, differ := imageDiff(imagedImg, plainImg); differ {
				t.Errorf("final crash images differ at page %#x", addr)
			}
		})
	}
}

// imageDiff returns the first page, in address order, that one image
// backs and the other does not, or that both back with different bytes.
// Images that materialize different page counts differ; otherwise every
// page of a must be backed in b with the same bytes.
func imageDiff(a, b *mem.Storage) (uint64, bool) {
	pages := a.PageAddrs()
	if a.MaterializedPages() != b.MaterializedPages() {
		for _, addr := range b.PageAddrs() {
			if !a.Backed(addr) {
				pages = append(pages, addr)
			}
		}
		slices.Sort(pages)
	}
	var pa, pb [mem.PageSize]byte
	for _, addr := range pages {
		if a.Backed(addr) != b.Backed(addr) {
			return addr, true
		}
		a.Read(addr, pa[:])
		b.Read(addr, pb[:])
		if pa != pb {
			return addr, true
		}
	}
	return 0, false
}
