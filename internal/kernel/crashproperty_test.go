package kernel

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// readStack captures the functional contents of a thread's whole stack
// reserve (unmapped pages read as zero).
func readStack(k *Kernel, p *Process, tid int) []byte {
	seg := p.Threads[tid].StackSeg
	buf := make([]byte, seg.Size())
	for va := seg.Lo; va < seg.Hi; va += mem.PageSize {
		if paddr, _, ok := p.AS.PT.Translate(va); ok {
			k.Mach.Storage.Read(paddr, buf[va-seg.Lo:va-seg.Lo+mem.PageSize])
		}
	}
	return buf
}

// The whole-system crash-consistency property: for arbitrary run lengths
// and crash points, the recovered stack equals the stack contents at the
// last *committed* checkpoint — never a torn or stale mix. This is the
// end-to-end version of the per-mechanism property in internal/persist.
func TestCrashConsistencyProperty(t *testing.T) {
	cfg := ProcessConfig{
		Name:      "prop",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
		Seed:      1,
	}
	f := func(phaseSeeds []uint8) bool {
		if len(phaseSeeds) == 0 {
			return true
		}
		if len(phaseSeeds) > 5 {
			phaseSeeds = phaseSeeds[:5]
		}
		k := New(Config{Machine: machine.Config{Cores: 1}})
		prog := workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 64})
		p := k.Spawn(cfg, prog)

		var lastCommit []byte
		for _, s := range phaseSeeds {
			// Run a variable slice, then checkpoint and snapshot.
			k.RunFor(sim.Time(20+int(s)%80) * sim.Microsecond)
			done := false
			p.Checkpoint(func() { done = true })
			k.Eng.RunWhile(func() bool { return !done })
			lastCommit = readStack(k, p, 0)
		}
		// Run past the last commit (dirtying more stack), then crash.
		k.RunFor(sim.Time(10+int(phaseSeeds[0])%50) * sim.Microsecond)
		p.Shutdown()

		k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k.Mach.CrashImage()}})
		rec, err := k2.RecoverProcess(cfg, []workload.Program{
			workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 64}),
		})
		if err != nil {
			return false
		}
		got := readStack(k2, rec, 0)
		rec.Shutdown()
		return bytes.Equal(got, lastCommit)
	}
	// Pin the generator so a failure reproduces exactly; the seed is
	// logged so a future fuzzier variant can report what it ran with.
	const quickSeed = 1
	t.Logf("testing/quick PRNG seed: %d", quickSeed)
	qc := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(quickSeed))}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// Crash DURING a checkpoint: whatever the crash point, recovery must land
// on a consistent state — either the previous checkpoint or the new one,
// never a mix. We steer the crash into the commit window by stopping the
// simulation a bounded number of events after the checkpoint starts.
func TestCrashMidCheckpointIsAtomic(t *testing.T) {
	for _, eventsIntoCkpt := range []uint64{1, 10, 100, 1000, 5000} {
		cfg := ProcessConfig{
			Name:      "mid",
			StackMech: persist.NewProsper(persist.ProsperConfig{}),
			Seed:      3,
		}
		k := New(Config{Machine: machine.Config{Cores: 1}})
		prog := workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64})
		p := k.Spawn(cfg, prog)

		// First checkpoint: a known-committed baseline.
		k.RunFor(100 * sim.Microsecond)
		done := false
		p.Checkpoint(func() { done = true })
		k.Eng.RunWhile(func() bool { return !done })
		baseline := readStack(k, p, 0)

		// More dirt, then start a second checkpoint and crash mid-flight.
		k.RunFor(60 * sim.Microsecond)
		second := false
		p.Checkpoint(func() { second = true })
		startEvents := k.Eng.Fired()
		k.Eng.RunWhile(func() bool { return !second && k.Eng.Fired() < startEvents+eventsIntoCkpt })
		committed := second
		var atCommit []byte
		if committed {
			atCommit = readStack(k, p, 0)
		}
		p.Shutdown()

		k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k.Mach.CrashImage()}})
		rec, err := k2.RecoverProcess(cfg, []workload.Program{
			workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := readStack(k2, rec, 0)
		rec.Shutdown()

		if committed {
			if !bytes.Equal(got, atCommit) {
				t.Fatalf("events=%d: committed checkpoint not recovered", eventsIntoCkpt)
			}
			continue
		}
		if !bytes.Equal(got, baseline) {
			t.Fatalf("events=%d: uncommitted checkpoint leaked into recovery", eventsIntoCkpt)
		}
	}
}
