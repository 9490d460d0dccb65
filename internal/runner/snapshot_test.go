package runner

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"prosper/internal/journey"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/workload"
)

// snapSpec is the quick differential-resume suite: one spec per
// persistence mechanism, small enough to run every mechanism in seconds
// but checkpointing often enough that a mid-window snapshot interrupts
// real in-flight apply traffic.
func snapSpec(mech string, seed uint64) Spec {
	stack, ok := persist.ByName(mech)
	if !ok {
		panic("unknown mechanism " + mech)
	}
	sp := Spec{
		Name: "snap-" + mech,
		Prog: func() workload.Program {
			return workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 128})
		},
		StackMech:   stack,
		Checkpoint:  true,
		Interval:    50 * sim.Microsecond,
		Checkpoints: 4,
		Seed:        seed,
	}
	if mech == "romulus" {
		// Romulus replays its log uncoalesced, so one checkpoint epoch
		// takes ~5 ms of sim time regardless of the trigger interval;
		// the window must span several epochs for a mid-window commit
		// to exist at all.
		sp.Interval = 150 * sim.Microsecond
		sp.Checkpoints = 150
	}
	return sp
}

var snapMechs = []string{"prosper", "dirtybit", "ssp", "romulus"}

// TestResumeByteIdentical is the resume gate: for every mechanism, a run
// that snapshots mid-window and keeps going must be reproduced
// byte-for-byte by a resume of that snapshot in a fresh kernel — the
// RunStats struct AND the full DumpStats text (every counter, histogram,
// and the engine's cycle/event clock).
//
// The prosper-512KiB case strides a 512 KiB array, which overflows the
// 64-entry TLB: the resumed run evicts and refills translations, so a
// TLB that restores stale replacement state diverges there, where the
// 16 KiB cases never evict. (Dirtybit's window at that size ends before
// commit 2, so it has no such case.)
func TestResumeByteIdentical(t *testing.T) {
	type resumeCase struct {
		name string
		sp   Spec
	}
	var cases []resumeCase
	for _, mech := range snapMechs {
		cases = append(cases, resumeCase{mech, snapSpec(mech, 1)})
	}
	big := snapSpec("prosper", 1)
	big.Prog = func() workload.Program {
		return workload.NewRandom(workload.MicroParams{ArrayBytes: 512 << 10, WritesPerRun: 128})
	}
	cases = append(cases, resumeCase{"prosper-512KiB", big})
	for _, tc := range cases {
		sp := tc.sp
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var snap bytes.Buffer
			ref, krun, err := sp.runSnapshot(&snap, 2)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Len() == 0 {
				t.Fatal("no snapshot written")
			}
			var refDump bytes.Buffer
			krun.DumpStats(&refDump)

			got, kres, err := sp.resume(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("resumed RunStats differ from reference:\nref: %+v\ngot: %+v", ref, got)
			}
			var gotDump bytes.Buffer
			kres.DumpStats(&gotDump)
			if !bytes.Equal(refDump.Bytes(), gotDump.Bytes()) {
				t.Fatalf("DumpStats differ after resume:\n--- reference ---\n%s\n--- resumed ---\n%s",
					diffHead(refDump.String(), gotDump.String()), "")
			}
		})
	}
}

// diffHead returns the first differing line pair of two texts.
func diffHead(a, b string) string {
	la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
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
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sp := snapSpec("prosper", seed).withDefaults()
			var first bytes.Buffer
			if _, _, err := sp.runSnapshot(&first, 2); err != nil {
				t.Fatal(err)
			}

			// Resume, then re-save from inside the re-entered commit hook
			// without running a single event in between.
			k, _ := sp.boot()
			p := sp.spawn(k)
			defer p.Shutdown()
			resumed, err := snapshot.Resume(bytes.NewReader(first.Bytes()), k)
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := snapshot.Save(&second, k, resumed.User); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("save→resume→save is not byte-stable: %d vs %d bytes",
					first.Len(), second.Len())
			}
		})
	}
}

// TestResumeDeterministicAcrossWorkerCounts runs the resume gate through
// the executor at 1 and 4 workers: snapshot-resumed runs must stay
// deterministic under the same parallel execution the experiment plans
// use.
func TestResumeDeterministicAcrossWorkerCounts(t *testing.T) {
	snaps := make([]*bytes.Buffer, len(snapMechs))
	plan := Plan{Name: "resume-parallel"}
	for i, mech := range snapMechs {
		snaps[i] = &bytes.Buffer{}
		plan.Specs = append(plan.Specs, snapSpec(mech, 3))
	}
	for i := range plan.Specs {
		if _, err := plan.Specs[i].RunSnapshot(snaps[i], 2); err != nil {
			t.Fatal(err)
		}
	}
	resumeAll := func(workers int) []RunStats {
		out := make([]RunStats, len(plan.Specs))
		errs := make([]error, len(plan.Specs))
		ForEach(workers, len(plan.Specs), func(i int) {
			out[i], errs[i] = plan.Specs[i].ResumeRun(bytes.NewReader(snaps[i].Bytes()))
		})
		for i, err := range errs {
			if err != nil {
				t.Errorf("spec %d: %v", i, err)
			}
		}
		return out
	}
	serial := resumeAll(1)
	parallel := resumeAll(4)
	if t.Failed() {
		t.FailNow()
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("spec %d: resumed stats differ between workers=1 and workers=4", i)
		}
	}
}

// TestSnapshotRejectsUnsupportedSpecs pins the typed-error contract for
// host-side observers and mis-use.
func TestSnapshotRejectsUnsupportedSpecs(t *testing.T) {
	sp := snapSpec("prosper", 1)
	sp.Profile = true
	if _, err := sp.RunSnapshot(&bytes.Buffer{}, 1); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("profiled spec: got %v, want ErrSnapshotUnsupported", err)
	}
	sp.Profile = false
	sp.Journey = journey.NewRecorder("snap", 64, 1)
	if _, err := sp.RunSnapshot(&bytes.Buffer{}, 1); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("journey-enabled spec: got %v, want ErrSnapshotUnsupported", err)
	}
	if _, err := sp.ResumeRun(&bytes.Buffer{}); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("journey-enabled resume: got %v, want ErrSnapshotUnsupported", err)
	}
	sp.Journey = nil
	sp.Checkpoint = false
	if _, err := sp.RunSnapshot(&bytes.Buffer{}, 1); !errors.Is(err, snapshot.ErrNotQuiescent) {
		t.Fatalf("checkpoint-less spec: got %v, want ErrNotQuiescent", err)
	}

	// A commit count past the window's end cannot be satisfied.
	sp = snapSpec("prosper", 1)
	if _, err := sp.RunSnapshot(&bytes.Buffer{}, 1000); !errors.Is(err, ErrNoCommit) {
		t.Fatalf("unreachable commit: got %v, want ErrNoCommit", err)
	}

	// Resuming with a different spec is refused by fingerprint.
	sp = snapSpec("prosper", 1)
	var snap bytes.Buffer
	if _, err := sp.RunSnapshot(&snap, 2); err != nil {
		t.Fatal(err)
	}
	other := snapSpec("prosper", 1)
	other.Seed = 99
	if _, err := other.ResumeRun(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("wrong-spec resume: got %v, want ErrSpecMismatch", err)
	}
}

// TestResumeRejectsPaddedSections: every section holds exactly what its
// decoder reads. Four extra bytes at the end of any one section, with
// the section's length and CRC fixed up so the framing is valid, must be
// refused as corrupt rather than silently ignored.
func TestResumeRejectsPaddedSections(t *testing.T) {
	sp := snapSpec("prosper", 1)
	var snap bytes.Buffer
	if _, err := sp.RunSnapshot(&snap, 2); err != nil {
		t.Fatal(err)
	}
	for sec := 0; sec < 4; sec++ {
		padded := padSection(snap.Bytes(), sec, 4)
		if _, err := sp.ResumeRun(bytes.NewReader(padded)); !errors.Is(err, snapshot.ErrCorrupt) {
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
