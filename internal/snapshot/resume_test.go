package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/workload"
)

// gateRun is one resume-gate machine: a single-core kernel running a
// checkpointing random-store microbenchmark under one stack mechanism
// from boot to a fixed end cycle. It is small enough to run every
// mechanism in seconds but checkpoints often enough that a snapshot at
// commit 2 interrupts real in-flight apply traffic.
type gateRun struct {
	mech     string
	array    uint64 // bytes of stack array the workload stores into
	interval sim.Time
	end      sim.Time
	seed     uint64
}

func newGateRun(mech string, seed uint64) gateRun {
	g := gateRun{mech: mech, array: 16 << 10, interval: 50 * sim.Microsecond, seed: seed}
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

// boot builds the gate machine. Boot and spawn are fully determined by
// g, so a second boot reproduces the identical object graph a snapshot
// of the first can be resumed into.
func (g gateRun) boot(t testing.TB) (*kernel.Kernel, *kernel.Process) {
	stack, ok := persist.ByName(g.mech)
	if !ok {
		t.Fatalf("unknown mechanism %q", g.mech)
	}
	k := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}, Quantum: g.interval / 2})
	p := k.Spawn(kernel.ProcessConfig{
		Name:               "gate-" + g.mech,
		StackMech:          stack,
		StackReserve:       1 << 20,
		HeapSize:           64 << 10,
		Seed:               g.seed,
		CheckpointInterval: g.interval,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: g.array, WritesPerRun: 128}))
	return k, p
}

// save runs g from boot, saving a snapshot from the CommitHook of its
// commit-th checkpoint commit, then runs on to g.end. It returns the
// snapshot and the kernel's DumpStats at g.end.
func (g gateRun) save(t testing.TB, commit int) (snap, dump []byte) {
	k, p := g.boot(t)
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
	var out bytes.Buffer
	k.DumpStats(&out)
	return buf.Bytes(), out.Bytes()
}

// resume boots a fresh gate machine, resumes snap into it, finishes the
// interrupted commit and runs on to g.end. It returns the kernel's
// DumpStats at g.end.
func (g gateRun) resume(t testing.TB, snap []byte) []byte {
	k, p := g.boot(t)
	defer p.Shutdown()
	resumed, err := snapshot.Resume(bytes.NewReader(snap), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Finish(); err != nil {
		t.Fatal(err)
	}
	k.Eng.RunUntil(g.end)
	var out bytes.Buffer
	k.DumpStats(&out)
	return out.Bytes()
}

// TestResumeByteIdentical is the resume gate: for every mechanism, a run
// that snapshots at commit 2 and keeps going must be reproduced
// byte-for-byte by a resume of that snapshot in a fresh kernel — the
// full DumpStats text (every counter, histogram, and the engine's
// cycle/event clock).
//
// The prosper-512KiB case strides a 512 KiB array, which overflows the
// 64-entry TLB: the resumed run evicts and refills translations, so a
// TLB that restores stale replacement state diverges there, where the
// 16 KiB cases never evict.
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
			if got := g.resume(t, snap); !bytes.Equal(ref, got) {
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

// TestSnapshotIdempotent pins save/resume/save stability: resuming a
// snapshot and immediately re-saving (before the commit epilogue runs)
// must reproduce the snapshot byte-identically, across several seeds.
// The property is what makes snapshot chains trustworthy: resume loses
// nothing, not even encoding details.
func TestSnapshotIdempotent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		g := newGateRun("prosper", seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			first, _ := g.save(t, 2)

			// Resume, then re-save from inside the re-entered commit hook
			// without running a single event in between.
			k, p := g.boot(t)
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
				t.Fatalf("save→resume→save is not byte-stable: %d vs %d bytes",
					len(first), second.Len())
			}
		})
	}
}

// TestResumeRejectsPaddedSections: every machine section holds exactly
// what its decoder reads. Four extra bytes at the end of the ENGINE,
// MACHINE or KERNEL section, with the section's length and CRC fixed up
// so the framing is valid, must be refused as corrupt rather than
// silently ignored. The USER section is opaque and comes back verbatim.
func TestResumeRejectsPaddedSections(t *testing.T) {
	g := newGateRun("prosper", 1)
	snap, _ := g.save(t, 2)
	for sec := 0; sec < 4; sec++ {
		k, p := g.boot(t)
		resumed, err := snapshot.Resume(bytes.NewReader(padSection(snap, sec, 4)), k)
		p.Shutdown()
		if sec == 0 {
			if err != nil {
				t.Errorf("USER padded: %v", err)
			} else if want := []byte("gate\x00\x00\x00\x00"); !bytes.Equal(resumed.User, want) {
				t.Errorf("USER padded: got %q, want %q", resumed.User, want)
			}
			continue
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("section %d padded: got %v, want ErrCorrupt", sec+1, err)
		}
	}
}

// padSection returns a copy of a snapshot with n zero bytes appended to
// the payload of its idx-th section (0-based), the section header's
// length and CRC rewritten to match.
func padSection(data []byte, idx, n int) []byte {
	out := append([]byte(nil), data[:12]...) // magic + version
	off := 12
	for i := 0; i < 4; i++ {
		size := int(binary.LittleEndian.Uint64(data[off+4:]))
		payload := append([]byte(nil), data[off+16:off+16+size]...)
		if i == idx {
			payload = append(payload, make([]byte, n)...)
		}
		hdr := append([]byte(nil), data[off:off+16]...)
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
		out = append(append(out, hdr...), payload...)
		off += 16 + size
	}
	return out
}
