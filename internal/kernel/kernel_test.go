package kernel

import (
	"testing"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

func testKernel(cores int) *Kernel {
	return New(Config{Machine: machine.Config{Cores: cores}, Quantum: 200 * sim.Microsecond})
}

func TestSpawnAndRunToCompletion(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{Name: "counter"}, workload.NewCounter(200))
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("process never finished")
	}
	if !p.Done() {
		t.Fatal("Done() false after completion")
	}
	thr := p.Threads[0]
	if thr.UserOps == 0 || thr.UserCycles == 0 {
		t.Fatal("no user accounting")
	}
	if c := thr.Prog.(*workload.CounterProgram); c.Progress() != 200 {
		t.Fatalf("progress = %d", c.Progress())
	}
}

// TestZeroLengthAccessesRetire checks that a 0-byte load and a 0-byte
// store complete like any other access: the thread keeps running, the
// ops after them retire, and the trailing store reaches memory. That
// store goes to the stack, because heap stores of a process without a
// heap mechanism keep no bytes.
func TestZeroLengthAccessesRetire(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{Name: "zero"}, workload.NewProgram("zero", func(g *workload.G) {
		g.Load(g.Ctx.HeapLo, 0)
		g.Store(g.Ctx.HeapLo, 0)
		g.Load(g.Ctx.HeapLo, 8)
		g.Call(16) // pushes the return address: one more store
		g.StoreLocal(0, 8)
	}))
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("thread stalled behind a zero-length access")
	}
	if ops := p.Threads[0].UserOps; ops != 5 {
		t.Fatalf("user ops = %d, want 5 retired accesses", ops)
	}
	paddr, _, ok := p.AS.PT.Translate(p.Threads[0].Ctx.StackHi - 16)
	if !ok {
		t.Fatal("stack page never mapped")
	}
	if k.Mach.Storage.ReadU64(paddr) == 0 {
		t.Fatal("the store after the zero-length accesses never reached memory")
	}
}

func TestStackAndHeapActuallyWritten(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{Name: "counter"}, workload.NewCounter(100))
	k.RunUntilDone(sim.Second)
	// The counter writes to its stack window and heap log; both must be
	// mapped with real contents.
	thr := p.Threads[0]
	if _, _, ok := p.AS.PT.Translate(thr.Ctx.StackHi - 4096); !ok {
		t.Fatal("stack page never mapped")
	}
	if _, _, ok := p.AS.PT.Translate(heapBase); !ok {
		t.Fatal("heap page never mapped")
	}
	if p.AS.DemandFaults() == 0 {
		t.Fatal("no demand faults recorded")
	}
}

func TestPeriodicCheckpointsHappen(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:               "app",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 500 * sim.Microsecond,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 64}))
	k.RunFor(5 * sim.Millisecond)
	if p.CheckpointCount < 5 {
		t.Fatalf("checkpoints = %d, want >= 5", p.CheckpointCount)
	}
	if p.CheckpointBytes == 0 {
		t.Fatal("checkpoints copied nothing")
	}
	p.Shutdown()
}

func TestCheckpointPausesAndResumes(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:      "app",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
	}, workload.NewStream(workload.MicroParams{ArrayBytes: 8 << 10}))
	k.RunFor(200 * sim.Microsecond)
	opsBefore := p.Threads[0].UserOps
	ckptDone := false
	p.Checkpoint(func() { ckptDone = true })
	k.Eng.RunWhile(func() bool { return !ckptDone })
	if !ckptDone {
		t.Fatal("checkpoint never completed")
	}
	k.RunFor(200 * sim.Microsecond)
	if p.Threads[0].UserOps <= opsBefore {
		t.Fatal("thread did not resume after checkpoint")
	}
	p.Shutdown()
}

func TestTwoThreadsShareOneCore(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:      "mt",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
	},
		workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 32}),
		workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 32}),
	)
	k.RunFor(3 * sim.Millisecond)
	t0, t1 := p.Threads[0], p.Threads[1]
	if t0.UserOps == 0 || t1.UserOps == 0 {
		t.Fatalf("starvation: ops = %d / %d", t0.UserOps, t1.UserOps)
	}
	// Context switches with tracker save/restore must have occurred.
	if k.Counters.Get("kernel.context_switches") < 4 {
		t.Fatalf("context switches = %d", k.Counters.Get("kernel.context_switches"))
	}
	if k.Counters.Get("kernel.ctxswitch_out_cycles") == 0 {
		t.Fatal("no tracker save cost recorded")
	}
	p.Shutdown()
}

func TestThreadsSpreadAcrossCores(t *testing.T) {
	k := testKernel(2)
	p := k.Spawn(ProcessConfig{Name: "mt"},
		workload.NewCounter(500), workload.NewCounter(500))
	if p.Threads[0].home == p.Threads[1].home {
		t.Fatal("both threads placed on one core")
	}
	if !k.RunUntilDone(sim.Second) {
		t.Fatal("threads never finished")
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	// Boot, run a checkpointable counter with periodic checkpoints,
	// crash mid-run, reboot on the surviving storage, recover, and finish.
	cfg := ProcessConfig{
		Name:               "svc",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 300 * sim.Microsecond,
	}
	k1 := testKernel(1)
	prog1 := workload.NewCounter(100000) // long enough to be interrupted
	p1 := k1.Spawn(cfg, prog1)
	k1.RunFor(2 * sim.Millisecond)
	if p1.CheckpointCount == 0 {
		t.Fatal("no checkpoints before crash")
	}
	progressAtCrash := prog1.Progress()
	if progressAtCrash == 0 {
		t.Fatal("program made no progress")
	}

	// Power failure.
	k1.Mach.Crash()
	storage := k1.Mach.Storage

	// Reboot on the same NVM.
	k2 := New(Config{
		Machine: machine.Config{Cores: 1, Storage: storage},
		Quantum: 200 * sim.Microsecond,
	})
	var recovered *Process
	prog2 := workload.NewCounter(100000)
	err := k2.RecoverProcess(cfg, []workload.Program{prog2}, func(p *Process) { recovered = p })
	if err != nil {
		t.Fatal(err)
	}
	k2.Eng.RunWhile(func() bool { return recovered == nil })
	if recovered == nil {
		t.Fatal("recovery never completed")
	}
	// The program resumed from the last checkpoint: progress is > 0 (not
	// restarted) and <= the crash progress (no time travel).
	resumeProgress := prog2.Progress()
	if resumeProgress == 0 {
		t.Fatal("execution position not restored from checkpoint")
	}
	if resumeProgress > progressAtCrash {
		t.Fatalf("resumed beyond crash point: %d > %d", resumeProgress, progressAtCrash)
	}
	// And it keeps running.
	k2.RunFor(2 * sim.Millisecond)
	if prog2.Progress() <= resumeProgress {
		t.Fatal("recovered process is not executing")
	}
	recovered.Shutdown()
}

func TestRecoveredStackMatchesCheckpoint(t *testing.T) {
	cfg := ProcessConfig{
		Name:      "svc2",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
	}
	k1 := testKernel(1)
	prog := workload.NewCounter(100000)
	p1 := k1.Spawn(cfg, prog)
	k1.RunFor(1 * sim.Millisecond)
	ckptDone := false
	p1.Checkpoint(func() { ckptDone = true })
	k1.Eng.RunWhile(func() bool { return !ckptDone })

	// Capture the checkpointed stack extent contents right now.
	thr := p1.Threads[0]
	lo := thr.StackSeg.Hi - 8192
	want := make([]byte, 8192)
	for va := lo; va < thr.StackSeg.Hi; va += mem.PageSize {
		if paddr, _, ok := p1.AS.PT.Translate(va); ok {
			k1.Mach.Storage.Read(paddr, want[va-lo:va-lo+mem.PageSize])
		}
	}
	// Keep running (dirtying the stack beyond the checkpoint), then crash.
	k1.RunFor(1 * sim.Millisecond)
	k1.Mach.Crash()

	k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k1.Mach.Storage}})
	var rec *Process
	err := k2.RecoverProcess(cfg, []workload.Program{workload.NewCounter(100000)}, func(p *Process) { rec = p })
	if err != nil {
		t.Fatal(err)
	}
	k2.Eng.RunWhile(func() bool { return rec == nil })

	got := make([]byte, 8192)
	thr2 := rec.Threads[0]
	for va := lo; va < thr2.StackSeg.Hi; va += mem.PageSize {
		if paddr, _, ok := rec.AS.PT.Translate(va); ok {
			k2.Mach.Storage.Read(paddr, got[va-lo:va-lo+mem.PageSize])
		}
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("stack byte %d differs after recovery: %#x vs %#x", i, want[i], got[i])
		}
	}
	rec.Shutdown()
}

func TestRecoverUnknownProcessFails(t *testing.T) {
	k := testKernel(1)
	err := k.RecoverProcess(ProcessConfig{Name: "ghost"}, []workload.Program{workload.NewCounter(1)}, nil)
	if err == nil {
		t.Fatal("recovering unknown process should fail")
	}
}

func TestCheckpointIdleProcessCopiesNothing(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:      "idle",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
	}, workload.NewCounter(10))
	k.RunUntilDone(sim.Second)
	before := p.CheckpointBytes
	done := false
	p.Checkpoint(func() { done = true })
	k.Eng.RunWhile(func() bool { return !done })
	// Process finished: checkpoint of a done process is skipped.
	if p.CheckpointBytes != before {
		t.Fatal("checkpoint of finished process copied data")
	}
}

func TestHeapMechanismCheckpointed(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:      "heapy",
		StackMech: persist.NewProsper(persist.ProsperConfig{}),
		HeapMech:  persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize:  1 << 20,
	}, workload.NewCounter(10_000_000)) // long-lived: still running at checkpoint
	k.RunFor(1 * sim.Millisecond)
	done := false
	p.Checkpoint(func() { done = true })
	k.Eng.RunWhile(func() bool { return !done })
	if p.Counters.Get("proc.heap_ckpt_bytes") == 0 {
		t.Fatal("heap mechanism never persisted anything")
	}
	p.Shutdown()
}

func TestUserIPCPositive(t *testing.T) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{Name: "ipc"}, workload.NewCounter(1000))
	k.RunUntilDone(sim.Second)
	ipc := p.UserIPC()
	if ipc <= 0 || ipc > 2 {
		t.Fatalf("user IPC = %f", ipc)
	}
}

func TestSuperblockSurvivesReboot(t *testing.T) {
	k1 := testKernel(1)
	k1.Spawn(ProcessConfig{Name: "a"}, workload.NewCounter(1))
	k1.Spawn(ProcessConfig{Name: "b"}, workload.NewCounter(1))
	k1.RunUntilDone(sim.Second)
	k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k1.Mach.Storage}})
	if _, ok := k2.super.findProc("a"); !ok {
		t.Fatal("proc a lost across reboot")
	}
	if _, ok := k2.super.findProc("b"); !ok {
		t.Fatal("proc b lost across reboot")
	}
	if _, ok := k2.super.findProc("c"); ok {
		t.Fatal("phantom proc found")
	}
}
