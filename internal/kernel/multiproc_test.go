package kernel

import (
	"testing"

	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

func TestTwoProcessesIsolatedAddressSpaces(t *testing.T) {
	k := New(Config{Machine: machine.Config{Cores: 2}, Quantum: 100 * sim.Microsecond})
	pa := k.Spawn(ProcessConfig{Name: "a", Seed: 1}, workload.NewCounter(5000))
	pb := k.Spawn(ProcessConfig{Name: "b", Seed: 2}, workload.NewCounter(5000))
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("processes never finished")
	}
	// Same virtual heap base, different physical frames.
	fa, _, okA := pa.AS.PT.Translate(heapBase)
	fb, _, okB := pb.AS.PT.Translate(heapBase)
	if !okA || !okB {
		t.Fatal("heaps not mapped")
	}
	if fa == fb {
		t.Fatal("processes share a physical heap frame")
	}
}

func TestTwoProcessesCheckpointIndependently(t *testing.T) {
	k := New(Config{Machine: machine.Config{Cores: 2}, Quantum: 100 * sim.Microsecond})
	mk := func(name string, interval sim.Time) *Process {
		return k.Spawn(ProcessConfig{
			Name:               name,
			StackMech:          persist.NewProsper(persist.ProsperConfig{}),
			CheckpointInterval: interval,
		}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 64}))
	}
	fast := mk("fast", 100*sim.Microsecond)
	slow := mk("slow", 400*sim.Microsecond)
	k.RunFor(900 * sim.Microsecond)
	if fast.CheckpointCount <= slow.CheckpointCount {
		t.Fatalf("fast %d vs slow %d checkpoints", fast.CheckpointCount, slow.CheckpointCount)
	}
	if slow.CheckpointCount == 0 {
		t.Fatal("slow process never checkpointed")
	}
	fast.Shutdown()
	slow.Shutdown()
}

func TestTwoProcessesShareOneCore(t *testing.T) {
	// Both processes on a single core: address-space switches must be
	// correct (TLB flushes via SwitchContext) and both must progress.
	k := New(Config{Machine: machine.Config{Cores: 1}, Quantum: 50 * sim.Microsecond})
	pa := k.Spawn(ProcessConfig{Name: "a", Seed: 1}, workload.NewCounter(100_000))
	pb := k.Spawn(ProcessConfig{Name: "b", Seed: 2}, workload.NewCounter(100_000))
	k.RunFor(600 * sim.Microsecond)
	oa, ob := pa.Threads[0].UserOps, pb.Threads[0].UserOps
	if oa == 0 || ob == 0 {
		t.Fatalf("starvation across processes: %d / %d", oa, ob)
	}
	if k.Mach.Cores[0].Counters.Get("core.context_switches") == 0 {
		t.Fatal("no address-space switches recorded")
	}
}

func TestCrashRecoveryWithTwoProcesses(t *testing.T) {
	cfgA := ProcessConfig{
		Name: "svc-a", StackMech: persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond, Seed: 1,
	}
	cfgB := ProcessConfig{
		Name: "svc-b", StackMech: persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond, Seed: 2,
	}
	k1 := New(Config{Machine: machine.Config{Cores: 2}})
	a1, b1 := workload.NewCounter(10_000_000), workload.NewCounter(10_000_000)
	k1.Spawn(cfgA, a1)
	k1.Spawn(cfgB, b1)
	k1.RunFor(1 * sim.Millisecond)

	// Recover the two processes one after the other.
	k2 := New(Config{Machine: machine.Config{Cores: 2, Storage: k1.Mach.CrashImage()}})
	a2, b2 := workload.NewCounter(10_000_000), workload.NewCounter(10_000_000)
	recA, err := k2.RecoverProcess(cfgA, []workload.Program{a2})
	if err != nil {
		t.Fatal(err)
	}
	recB, err := k2.RecoverProcess(cfgB, []workload.Program{b2})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Progress() == 0 || b2.Progress() == 0 {
		t.Fatalf("recovery positions: a=%d b=%d", a2.Progress(), b2.Progress())
	}
	if a2.Progress() > a1.Progress() || b2.Progress() > b1.Progress() {
		t.Fatal("recovered beyond crash point")
	}
	recA.Shutdown()
	recB.Shutdown()
}
