package kernel

import (
	"bytes"
	"testing"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// TestFullMemoryStateRecovery covers the paper's headline use case: the
// whole mutable memory state (heap + stack) persists and is recovered —
// stack via Prosper, heap via Dirtybit in this configuration.
func TestFullMemoryStateRecovery(t *testing.T) {
	cfg := ProcessConfig{
		Name:               "fullmem",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		HeapMech:           persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize:           1 << 20,
		CheckpointInterval: 200 * sim.Microsecond,
		Seed:               5,
	}
	k := New(Config{Machine: machine.Config{Cores: 1}})
	p := k.Spawn(cfg, workload.NewCounter(10_000_000))
	k.RunFor(700 * sim.Microsecond)
	if p.CheckpointCount == 0 {
		t.Fatal("no checkpoints")
	}
	// Snapshot the committed heap+stack: stop the periodic ticker (so no
	// newer checkpoint supersedes the snapshot) and take one synchronous
	// checkpoint we know is the last durable state.
	p.StopCheckpoints()
	done := false
	p.Checkpoint(func() { done = true })
	k.Eng.RunWhile(func() bool { return !done })
	wantHeap := readSegment(k, p, p.HeapSeg.Lo, p.HeapSeg.Hi)
	wantStack := readStack(k, p, 0)

	// Keep running past the checkpoint (more dirt), then crash.
	k.RunFor(150 * sim.Microsecond)
	p.Shutdown()

	k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k.Mach.CrashImage()}})
	rec, err := k2.RecoverProcess(cfg, []workload.Program{workload.NewCounter(10_000_000)})
	if err != nil {
		t.Fatal(err)
	}

	gotHeap := readSegment(k2, rec, rec.HeapSeg.Lo, rec.HeapSeg.Hi)
	gotStack := readStack(k2, rec, 0)
	if !bytes.Equal(gotStack, wantStack) {
		t.Fatal("stack state not recovered to last checkpoint")
	}
	if !bytes.Equal(gotHeap, wantHeap) {
		t.Fatal("heap state not recovered to last checkpoint")
	}
	rec.Shutdown()
}

func readSegment(k *Kernel, p *Process, lo, hi uint64) []byte {
	buf := make([]byte, hi-lo)
	for va := lo; va < hi; va += mem.PageSize {
		if paddr, _, ok := p.AS.PT.Translate(va); ok {
			k.Mach.Storage.Read(paddr, buf[va-lo:va-lo+mem.PageSize])
		}
	}
	return buf
}

// TestFailedRecoveryAttachesNothing: a process with an SSP heap crashed
// before its first commit has no register checkpoint, so recovery must
// fail, and it must fail before the heap mechanism is attached. An
// attached SSP heap would leave its consolidation ticker firing on the
// rebooted engine with no process behind it.
func TestFailedRecoveryAttachesNothing(t *testing.T) {
	cfg := ProcessConfig{
		Name:               "sspheap",
		HeapMech:           persist.NewSSP(persist.SSPConfig{}),
		HeapSize:           1 << 20,
		CheckpointInterval: 50 * sim.Microsecond,
	}
	k := New(Config{Machine: machine.Config{Cores: 1}})
	k.Spawn(cfg, workload.NewCounter(10_000_000))
	k.Eng.RunUntil(20 * sim.Microsecond)

	k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k.Mach.CrashImage()}})
	if _, err := k2.RecoverProcess(cfg, []workload.Program{workload.NewCounter(10_000_000)}); err == nil {
		t.Fatal("recovery fabricated a process with no durable checkpoint")
	}
	before := k2.Eng.Fired()
	k2.Eng.RunUntil(k2.Eng.Now() + 100*sim.Microsecond)
	if n := k2.Eng.Fired() - before; n != 0 {
		t.Fatalf("the failed recovery left work behind: %d events fired in the next 100 µs", n)
	}
}
