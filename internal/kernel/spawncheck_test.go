package kernel

import (
	"fmt"
	"strings"
	"testing"

	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

// TestSpawnDuplicateNamePanics: the superblock's findProc returns the
// first record with a name, so a second process of the same name could
// never be recovered.
func TestSpawnDuplicateNamePanics(t *testing.T) {
	k := testKernel(1)
	k.Spawn(ProcessConfig{Name: "svc"}, workload.NewCounter(10))
	mustPanic(t, "already exists", func() {
		k.Spawn(ProcessConfig{Name: "svc"}, workload.NewCounter(10))
	})
	// The default name counts too.
	k.Spawn(ProcessConfig{}, workload.NewCounter(10))
	mustPanic(t, `"proc" already exists`, func() {
		k.Spawn(ProcessConfig{}, workload.NewCounter(10))
	})
}

// TestSpawnLongNamePanics: a name longer than the superblock record
// would be stored truncated and never found again by RecoverProcess.
func TestSpawnLongNamePanics(t *testing.T) {
	k := testKernel(1)
	mustPanic(t, "longer than 48 bytes", func() {
		k.Spawn(ProcessConfig{Name: strings.Repeat("n", 49)}, workload.NewCounter(10))
	})
}

// TestMaxLengthNameRecovers: a name that fills the whole record has no
// NUL terminator, and must still round-trip through a crash.
func TestMaxLengthNameRecovers(t *testing.T) {
	name := strings.Repeat("n", 48)
	checkNameRecovers(t, name, name)
}

// TestEmptyNameRecovers: Spawn files an unnamed process under the
// default name, so recovery with the same empty name must find it.
func TestEmptyNameRecovers(t *testing.T) {
	checkNameRecovers(t, "", "proc")
}

// checkNameRecovers spawns a process named name, crashes it after a
// checkpoint and recovers it with the same configuration: the recovered
// process must be called want and resume its program, and a second
// recovery of the running process must fail.
func checkNameRecovers(t *testing.T, name, want string) {
	t.Helper()
	cfg := ProcessConfig{
		Name:               name,
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 300 * sim.Microsecond,
	}
	k1 := testKernel(1)
	p1 := k1.Spawn(cfg, workload.NewCounter(100000))
	k1.RunFor(1 * sim.Millisecond)
	if p1.CheckpointCount == 0 {
		t.Fatal("no checkpoints before crash")
	}
	k2 := New(Config{Machine: machine.Config{Cores: 1, Storage: k1.Mach.CrashImage()}})
	prog := workload.NewCounter(100000)
	rec, err := k2.RecoverProcess(cfg, []workload.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != want || prog.Progress() == 0 {
		t.Fatalf("recovery of process %q did not restore it as %q (got %q)", name, want, rec.Name)
	}
	// A second recovery of the running process would duplicate it.
	if _, err := k2.RecoverProcess(cfg, []workload.Program{workload.NewCounter(100000)}); err == nil {
		t.Fatal("recovering an already running process should fail")
	}
	rec.Shutdown()
}

// TestTrackerOnStackAndHeapPanics: stack and heap mechanisms share one
// tracker MSR range per core, so both may not be tracker-based. Heap-only
// Prosper stays supported (TestProsperForHeapSegment).
func TestTrackerOnStackAndHeapPanics(t *testing.T) {
	prosperF := persist.NewProsper(persist.ProsperConfig{})
	adaptive := persist.NewAdaptiveProsper(persist.AdaptiveConfig{})
	for _, heap := range []persist.Factory{prosperF, adaptive} {
		cfg := ProcessConfig{Name: "both", StackMech: prosperF, HeapMech: heap, HeapSize: 1 << 20}
		k := testKernel(1)
		mustPanic(t, "both use a Prosper tracker", func() {
			k.Spawn(cfg, workload.NewCounter(10))
		})
		mustPanic(t, "both use a Prosper tracker", func() {
			k.RecoverProcess(cfg, []workload.Program{workload.NewCounter(10)})
		})
	}
	k := testKernel(1)
	k.Spawn(ProcessConfig{Name: "stack", StackMech: prosperF, HeapMech: persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize: 1 << 20}, workload.NewCounter(10))
	k.Spawn(ProcessConfig{Name: "heap", HeapMech: adaptive, HeapSize: 1 << 20}, workload.NewCounter(10))
}
