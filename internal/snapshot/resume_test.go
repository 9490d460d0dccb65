package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"prosper/internal/journey"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// gateRun is one resume-gate machine: a kernel running a checkpointing
// random-store microbenchmark under one stack mechanism from boot to a
// fixed end cycle. It is small enough to run every mechanism in seconds
// but checkpoints often enough that a snapshot at commit 2 interrupts
// real in-flight apply traffic.
type gateRun struct {
	mech     string
	array    uint64 // bytes of stack array the workload stores into
	cores    int
	procs    int // processes spawned, each like the first
	threads  int // threads per process
	interval sim.Time
	end      sim.Time
	seed     uint64
}

func newGateRun(mech string, seed uint64) gateRun {
	g := gateRun{mech: mech, array: 16 << 10, cores: 1, procs: 1, threads: 1, interval: 50 * sim.Microsecond, seed: seed}
	if mech == "romulus" {
		// Romulus replays its log uncoalesced, so one checkpoint epoch
		// takes ~5 ms of sim time regardless of the trigger interval;
		// the run must span several epochs for a mid-run commit to
		// exist at all.
		g.interval = 150 * sim.Microsecond
		g.end = 150 * g.interval
	} else {
		g.end = 4 * g.interval
	}
	return g
}

// boot builds the gate machine with cfg's observers. Boot and spawn are
// fully determined by g, so a second boot dispatches the same events a
// snapshot of the first can be replayed to.
func (g gateRun) boot(t testing.TB, cfg kernel.Config) (*kernel.Kernel, *kernel.Process) {
	stack, ok := persist.ByName(g.mech)
	if !ok {
		t.Fatalf("unknown mechanism %q", g.mech)
	}
	cfg.Machine = machine.Config{Cores: g.cores}
	cfg.Quantum = g.interval / 2
	k := kernel.New(cfg)
	var first *kernel.Process
	for i := range g.procs {
		progs := make([]workload.Program, g.threads)
		for j := range progs {
			progs[j] = workload.NewRandom(workload.MicroParams{ArrayBytes: g.array, WritesPerRun: 128})
		}
		p := k.Spawn(kernel.ProcessConfig{
			Name:               fmt.Sprintf("gate-%s-%d", g.mech, i),
			StackMech:          stack,
			StackReserve:       1 << 20,
			HeapSize:           64 << 10,
			Seed:               g.seed,
			CheckpointInterval: g.interval,
		}, progs...)
		if first == nil {
			first = p
		}
	}
	return k, first
}

// save runs g from boot, saving a snapshot from the CommitHook of its
// commit-th checkpoint commit, then runs on to g.end. It returns the
// snapshot and the kernel's DumpStats at g.end.
func (g gateRun) save(t testing.TB, commit int) (snap, dump []byte) {
	k, p := g.boot(t, kernel.Config{})
	defer p.Shutdown()
	var buf bytes.Buffer
	commits := 0
	p.CommitHook = func(*kernel.Process) {
		commits++
		if commits != commit {
			return
		}
		if err := snapshot.Save(&buf, k, []byte("gate")); err != nil {
			t.Fatal(err)
		}
	}
	k.Eng.RunUntil(g.end)
	if commits < commit {
		t.Fatalf("run ended at cycle %d after %d commits, before commit %d", g.end, commits, commit)
	}
	return buf.Bytes(), dumpStats(k)
}

// resume replays snap into k, a fresh boot, and runs on to g.end. It
// returns the kernel's DumpStats at g.end.
func (g gateRun) resume(t testing.TB, k *kernel.Kernel, snap []byte) []byte {
	resumed, err := snapshot.Resume(bytes.NewReader(snap), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Finish(); err != nil {
		t.Fatal(err)
	}
	k.Eng.RunUntil(g.end)
	return dumpStats(k)
}

func dumpStats(k *kernel.Kernel) []byte {
	var out bytes.Buffer
	k.DumpStats(&out)
	return out.Bytes()
}

// TestResumeByteIdentical is the resume gate: for every mechanism, a run
// that snapshots at commit 2 and keeps going must be reproduced
// byte-for-byte by a replay of that snapshot in a fresh kernel: the full
// DumpStats text (every counter, histogram, and the engine's
// cycle/event clock).
//
// The prosper-512KiB case strides a 512 KiB array, which overflows the
// 64-entry TLB, so the resumed run evicts and refills translations.
func TestResumeByteIdentical(t *testing.T) {
	type resumeCase struct {
		name string
		g    gateRun
	}
	var cases []resumeCase
	for _, mech := range []string{"prosper", "dirtybit", "ssp", "romulus"} {
		cases = append(cases, resumeCase{mech, newGateRun(mech, 1)})
	}
	big := newGateRun("prosper", 1)
	big.array = 512 << 10
	cases = append(cases, resumeCase{"prosper-512KiB", big})
	for _, tc := range cases {
		g := tc.g
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			snap, ref := g.save(t, 2)
			if len(snap) == 0 {
				t.Fatal("no snapshot written")
			}
			k, p := g.boot(t, kernel.Config{})
			defer p.Shutdown()
			if got := g.resume(t, k, snap); !bytes.Equal(ref, got) {
				t.Fatalf("DumpStats differ after resume: %s", diffHead(ref, got))
			}
		})
	}
}

// diffHead describes the first differing line pair of two texts.
func diffHead(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < min(len(la), len(lb)); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("texts diverge in length: %d vs %d lines", len(la), len(lb))
}

// TestResumeObserved is "fork and watch": a run saved without observers
// resumes into a boot that carries a telemetry tracer, a journey
// recorder and an event profiler. The observers record the resumed
// part of the run, and the run itself ends exactly where the
// uninterrupted unobserved run does.
func TestResumeObserved(t *testing.T) {
	g := newGateRun("prosper", 1)
	snap, ref := g.save(t, 2)

	tracer := telemetry.NewTrace().NewTracer("resumed")
	jl := journey.NewJournal()
	k, p := g.boot(t, kernel.Config{Tracer: tracer, Journey: jl.NewRecorder("resumed", 16, 1)})
	defer p.Shutdown()
	prof := k.Eng.EnableProfiling(nil)
	if got := g.resume(t, k, snap); !bytes.Equal(ref, got) {
		t.Fatalf("observed resume differs from the unobserved run: %s", diffHead(ref, got))
	}
	if tracer.Events() == 0 {
		t.Error("tracer recorded no events")
	}
	var journal bytes.Buffer
	if err := jl.WriteJSONL(&journal); err != nil {
		t.Fatal(err)
	}
	if _, sampled, _ := jl.Recorders()[0].Counts(); sampled == 0 || journal.Len() == 0 {
		t.Errorf("journey recorder sampled %d accesses into %d bytes", sampled, journal.Len())
	}
	var counted uint64
	for _, n := range prof.Snapshot().Counts {
		counted += n
	}
	if counted != k.Eng.Fired() {
		t.Errorf("profiler counted %d events, engine fired %d", counted, k.Eng.Fired())
	}
}

// TestResumeBetweenRuns: a save taken between RunUntil calls records a
// cycle past the last dispatched event. Resume replays to that event
// and advances the clock to the saved cycle, so the resumed run
// schedules from the same now.
func TestResumeBetweenRuns(t *testing.T) {
	g := newGateRun("dirtybit", 1)
	k, p := g.boot(t, kernel.Config{})
	defer p.Shutdown()
	mid := g.end / 2
	k.Eng.RunUntil(mid)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, k, nil); err != nil {
		t.Fatal(err)
	}
	k.Eng.RunUntil(g.end)
	ref := dumpStats(k)

	k2, p2 := g.boot(t, kernel.Config{})
	defer p2.Shutdown()
	if _, err := snapshot.Resume(bytes.NewReader(buf.Bytes()), k2); err != nil {
		t.Fatal(err)
	}
	if k2.Eng.Now() != mid {
		t.Fatalf("resumed at cycle %d, want %d", k2.Eng.Now(), mid)
	}
	k2.Eng.RunUntil(g.end)
	if got := dumpStats(k2); !bytes.Equal(ref, got) {
		t.Fatalf("DumpStats differ after resume: %s", diffHead(ref, got))
	}
}

// TestSnapshotIdempotent pins save/resume/save stability: saving again
// right after Resume reproduces the snapshot byte-identically, across
// several seeds. Resume lands on exactly the saved event.
func TestSnapshotIdempotent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		g := newGateRun("prosper", seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			first, _ := g.save(t, 2)
			k, p := g.boot(t, kernel.Config{})
			defer p.Shutdown()
			resumed, err := snapshot.Resume(bytes.NewReader(first), k)
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := snapshot.Save(&second, k, resumed.User); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Fatalf("save→resume→save is not byte-stable: %x vs %x", first, second.Bytes())
			}
		})
	}
}

// TestResumeRejectsTrailingBytes: a snapshot ends at its CRC. Bytes
// after it are refused as corrupt rather than silently ignored.
func TestResumeRejectsTrailingBytes(t *testing.T) {
	g := newGateRun("prosper", 1)
	snap, _ := g.save(t, 2)
	padded := append(append([]byte(nil), snap...), 0, 0, 0, 0)
	k, p := g.boot(t, kernel.Config{})
	defer p.Shutdown()
	if _, err := snapshot.Resume(bytes.NewReader(padded), k); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if k.Eng.Fired() != 0 {
		t.Fatalf("a refused frame replayed %d events", k.Eng.Fired())
	}
}

// TestResumeRejectsNonFreshKernel: replay starts from boot, so a kernel
// that has dispatched any event is refused before it runs further.
func TestResumeRejectsNonFreshKernel(t *testing.T) {
	g := newGateRun("prosper", 1)
	snap, _ := g.save(t, 2)
	k, p := g.boot(t, kernel.Config{})
	defer p.Shutdown()
	k.Eng.Step()
	if _, err := snapshot.Resume(bytes.NewReader(snap), k); !errors.Is(err, snapshot.ErrNotFresh) {
		t.Fatalf("got %v, want ErrNotFresh", err)
	}
	if k.Eng.Fired() != 1 {
		t.Fatalf("a refused resume ran the kernel on to event %d", k.Eng.Fired())
	}
}

// TestResumeRejectsMismatchedBoot: a boot that differs from the saving
// one dispatches another event sequence, so the replay misses the saved
// (cycle, event) pair and Resume says so. (A boot that differs only in
// process names dispatches the same events, so replay cannot tell.)
func TestResumeRejectsMismatchedBoot(t *testing.T) {
	g := newGateRun("prosper", 1)
	snap, _ := g.save(t, 2)
	mismatched := map[string]func(*gateRun){
		"seed":          func(o *gateRun) { o.seed = 2 },
		"mechanism":     func(o *gateRun) { o.mech = "dirtybit" },
		"core_count":    func(o *gateRun) { o.cores = 2 },
		"process_count": func(o *gateRun) { o.procs = 2 },
		"thread_count":  func(o *gateRun) { o.threads = 2 },
	}
	for name, edit := range mismatched {
		other := g
		edit(&other)
		t.Run(name, func(t *testing.T) {
			k, _ := other.boot(t, kernel.Config{})
			defer func() {
				for _, p := range k.Procs() {
					p.Shutdown()
				}
			}()
			if _, err := snapshot.Resume(bytes.NewReader(snap), k); !errors.Is(err, snapshot.ErrMismatch) {
				t.Fatalf("got %v, want ErrMismatch", err)
			}
		})
	}
}
