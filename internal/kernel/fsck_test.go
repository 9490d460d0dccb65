package kernel

import (
	"strings"
	"testing"

	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// buildCheckpointedState runs a process through a few checkpoints and
// returns the kernel for inspection/corruption.
func buildCheckpointedState(t *testing.T) *Kernel {
	t.Helper()
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:               "fscked",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		HeapMech:           persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize:           1 << 20,
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewCounter(10_000_000))
	k.RunFor(900 * sim.Microsecond)
	if p.CheckpointCount == 0 {
		t.Fatal("no checkpoints to fsck")
	}
	p.Shutdown()
	return k
}

func TestFsckCleanImage(t *testing.T) {
	k := buildCheckpointedState(t)
	rep := Fsck(k.Mach.Storage)
	if !rep.OK() {
		t.Fatalf("clean image reported problems: %v", rep.Problems)
	}
	if rep.Processes != 1 {
		t.Fatalf("processes = %d", rep.Processes)
	}
	if rep.Segments != 2 { // one stack + one heap
		t.Fatalf("segments = %d", rep.Segments)
	}
}

func TestFsckCleanAfterCrash(t *testing.T) {
	k := buildCheckpointedState(t)
	rep := Fsck(k.Mach.CrashImage())
	if !rep.OK() {
		t.Fatalf("post-crash NVM reported problems: %v", rep.Problems)
	}
}

func TestFsckDetectsBadMagic(t *testing.T) {
	k := buildCheckpointedState(t)
	k.Mach.Storage.WriteU64(superBase, 0xdeadbeef)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("bad magic undetected")
	}
}

func TestFsckDetectsCorruptPhase(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.FindProc("fscked")
	k.Mach.Storage.WriteU64(p.Threads[0].StackSeg.MetaBase, 7)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("invalid phase undetected")
	}
}

func TestFsckDetectsEntryBeyondSegment(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.FindProc("fscked")
	meta := p.Threads[0].StackSeg.MetaBase
	// Force phase TempValid with one absurd entry.
	st := k.Mach.Storage
	st.WriteU64(meta, 1)        // phase
	st.WriteU64(meta+16, 1)     // count
	st.WriteU64(meta+24, 64)    // total
	st.WriteU64(meta+64, 1<<40) // offset way beyond segment
	st.WriteU64(meta+64+8, 64)  // size
	rep := Fsck(st)
	if rep.OK() {
		t.Fatal("out-of-segment entry undetected")
	}
}

func TestFsckDetectsSizeMismatch(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.FindProc("fscked")
	meta := p.Threads[0].StackSeg.MetaBase
	st := k.Mach.Storage
	st.WriteU64(meta, 1)       // temp-valid: the only phase whose table is fenced
	st.WriteU64(meta+16, 1)    // one entry
	st.WriteU64(meta+24, 999)  // header total inconsistent with entry
	st.WriteU64(meta+64, 0)    // off
	st.WriteU64(meta+64+8, 64) // size 64 != 999
	rep := Fsck(st)
	if rep.OK() {
		t.Fatal("size mismatch undetected")
	}
}

func TestFsckDetectsImplausibleThreadCount(t *testing.T) {
	k := buildCheckpointedState(t)
	hdr, _, _ := k.super.findProc("fscked")
	k.Mach.Storage.WriteU64(hdr+8, 1000)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("implausible thread count undetected")
	}
}

func TestFsckEmptyNVM(t *testing.T) {
	k := testKernel(1) // superblock initialized, no processes
	rep := Fsck(k.Mach.Storage)
	if !rep.OK() || rep.Processes != 0 {
		t.Fatalf("empty NVM: %+v", rep)
	}
}

// TestRecoverRefusesOversizedProcessCount: a crash image whose process
// count exceeds the directory's capacity is refused before any record is
// read, by recovery and by Spawn's duplicate-name check, with the same
// problem Fsck reports. Reading up to the count instead would walk 1M
// "records" through the checkpoint areas, and find the live record 0.
func TestRecoverRefusesOversizedProcessCount(t *testing.T) {
	const want = "process count 1048576 exceeds capacity"
	img := buildCheckpointedState(t).Mach.CrashImage()
	img.WriteU64(superCount, 1<<20)
	if rep := Fsck(img); len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], want) {
		t.Fatalf("Fsck problems = %v, want %q", rep.Problems, want)
	}
	k := New(Config{Machine: machine.Config{Cores: 1, Storage: img}})
	for _, name := range []string{"fscked", "missing"} {
		cfg := ProcessConfig{Name: name, StackMech: persist.NewProsper(persist.ProsperConfig{})}
		_, err := k.RecoverProcess(cfg, []workload.Program{workload.NewCounter(10)})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("recovering %q: err = %v, want %q", name, err, want)
		}
	}
	mustPanic(t, want, func() {
		k.Spawn(ProcessConfig{Name: "fresh"}, workload.NewCounter(10))
	})
}
