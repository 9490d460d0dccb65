package crash

import (
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

// TestSweepFindsNoViolations is the headline recovery property: across
// many crash points, spanning several checkpoint epochs and clustered
// around the commit windows, every mechanism recovers to a committed
// epoch with the exact committed execution position and stack contents.
func TestSweepFindsNoViolations(t *testing.T) {
	for _, mech := range Mechanisms() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			cfg := Config{Mechanism: mech, Points: sweepPoints(t, 16), Seed: 1}
			t.Logf("sweep %s: %d points, seed %d", mech, cfg.Points, cfg.Seed)
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
	img := Injector{At: 20_000}.Inject(k)
	if rep := kernel.Fsck(img); !rep.OK() {
		t.Fatalf("fsck before first commit: %v", rep.Problems)
	}
	fac, err := mechanism(cfg.Mechanism)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1, Storage: img}})
	err = k2.RecoverProcess(kernel.ProcessConfig{
		Name:         "sweep",
		StackMech:    fac,
		StackReserve: cfg.StackReserve,
		HeapSize:     cfg.HeapSize,
	}, []workload.Program{workload.NewCounter(cfg.Iterations)}, nil)
	if err == nil {
		t.Fatal("recovery fabricated a process with no durable checkpoint")
	}
	if !strings.Contains(err.Error(), "no register checkpoint") {
		t.Fatalf("unexpected recovery error: %v", err)
	}
}

// TestInjectorDeterministicAndPure: two injections of the same spec at
// the same cycle yield byte-identical NVM images, and taking an image
// does not perturb the donor simulation (a never-imaged run reaches the
// same state).
func TestInjectorDeterministicAndPure(t *testing.T) {
	cfg := Config{Mechanism: "dirtybit"}.withDefaults()
	const at = 180_000 // inside the second interval, past the first commit
	run := func(image bool) (*mem.Storage, *kernel.Kernel) {
		k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
		if _, _, err := cfg.spawn(k); err != nil {
			t.Fatal(err)
		}
		var img *mem.Storage
		if image {
			img = Injector{At: at}.Inject(k)
		} else {
			k.Eng.RunUntil(at)
		}
		return img, k
	}
	img1, k1 := run(true)
	img2, _ := run(true)
	// The kernel's NVM allocations for this config all sit in the first
	// MiB above NVMBase; byte-compare that window.
	buf1 := make([]byte, 1<<20)
	buf2 := make([]byte, 1<<20)
	img1.Read(mem.NVMBase, buf1)
	img2.Read(mem.NVMBase, buf2)
	for i := range buf1 {
		if buf1[i] != buf2[i] {
			t.Fatalf("crash images diverge at NVM offset %#x", i)
		}
	}
	// Purity: continue the imaged run and compare against a run that was
	// never imaged.
	_, k3 := run(false)
	k1.Eng.RunUntil(at + 100*sim.Microsecond)
	k3.Eng.RunUntil(at + 100*sim.Microsecond)
	if k1.Eng.Fired() != k3.Eng.Fired() {
		t.Fatalf("CrashImage perturbed the donor run: %d events vs %d", k1.Eng.Fired(), k3.Eng.Fired())
	}
}
