package runner

import (
	"errors"
	"fmt"
	"io"

	"prosper/internal/kernel"
	"prosper/internal/sim"
	"prosper/internal/snapbuf"
	"prosper/internal/snapshot"
)

// ErrSnapshotUnsupported reports a spec whose host-side observers cannot
// cross a snapshot: telemetry tracers, event profilers, and journey
// recorders hold host state (open spans, wall-clock accumulators,
// in-flight journeys keyed by live record identity) no snapshot can
// carry. This is the documented exclusion of journey state from the
// snapshot format (DESIGN.md §15): journey-enabled specs are rejected
// here instead of silently dropping trace state across a resume.
var ErrSnapshotUnsupported = errors.New(
	"runner: telemetry tracing, event profiling, and journey recording cannot cross a snapshot")

// ErrSpecMismatch reports a resume attempted with a spec that differs
// from the one that saved the snapshot.
var ErrSpecMismatch = errors.New("runner: snapshot was taken by a different spec")

// ErrNoCommit reports a RunSnapshot whose measured window ended before
// the requested checkpoint commit.
var ErrNoCommit = errors.New("runner: measured window ended before the requested commit")

// fingerprint captures everything that determines a run's trajectory.
// Mechanism factories are functions and cannot be compared, so the
// fingerprint records the booted mechanisms' names instead.
func (sp Spec) fingerprint(p *kernel.Process) string {
	return fmt.Sprintf("name=%s stack=%s heap=%s cores=%d threads=%d ckpt=%v interval=%d checkpoints=%d warmup=%d stack_reserve=%d heap=%d seed=%d tracker=%+v",
		sp.Name, p.StackMechName(), p.HeapMechName(), sp.Cores, sp.Threads,
		sp.Checkpoint, sp.Interval, sp.Checkpoints, sp.Warmup,
		sp.StackReserve, sp.HeapSize, sp.Seed, sp.Tracker)
}

// encodeUser packs the fingerprint and warmup-end baselines into the
// snapshot's opaque user payload.
func encodeUser(fp string, b baselines) []byte {
	w := snapbuf.NewWriter()
	w.String(fp)
	w.U64(b.opsBase)
	w.U64(b.cyclesBase)
	w.U64(b.ckptBase)
	w.U64(b.ckptBytesBase)
	w.U64(b.stackBytesBase)
	w.U64(b.stackCyclesBase)
	w.U64(b.stackMetaBase)
	w.U64(b.heapBytesBase)
	w.U64(b.heapCyclesBase)
	w.U64(b.tr.loads)
	w.U64(b.tr.stores)
	w.U64(b.tr.sois)
	w.U64(b.tr.writebacks)
	w.U64(b.wfBase)
	w.I64(b.start)
	return w.Bytes()
}

func decodeUser(data []byte, wantFP string) (baselines, error) {
	r := snapbuf.NewReader(data)
	fp := r.String()
	var b baselines
	b.opsBase = r.U64()
	b.cyclesBase = r.U64()
	b.ckptBase = r.U64()
	b.ckptBytesBase = r.U64()
	b.stackBytesBase = r.U64()
	b.stackCyclesBase = r.U64()
	b.stackMetaBase = r.U64()
	b.heapBytesBase = r.U64()
	b.heapCyclesBase = r.U64()
	b.tr.loads = r.U64()
	b.tr.stores = r.U64()
	b.tr.sois = r.U64()
	b.tr.writebacks = r.U64()
	b.wfBase = r.U64()
	b.start = sim.Time(r.I64())
	if err := snapshot.Consumed(r, r.Err()); err != nil {
		return baselines{}, fmt.Errorf("%w: user payload: %w", snapshot.ErrCorrupt, err)
	}
	if fp != wantFP {
		return baselines{}, fmt.Errorf("%w:\n  snapshot: %s\n  resume:   %s", ErrSpecMismatch, fp, wantFP)
	}
	return b, nil
}

// RunSnapshot executes the spec like Run, additionally saving a full
// machine snapshot to w at the snapAt-th checkpoint commit of the
// measured window (snapAt counts from 1). Saving is a pure read: the
// run continues to completion and returns its normal RunStats, which a
// ResumeRun of the written snapshot reproduces byte-identically.
func (sp Spec) RunSnapshot(w io.Writer, snapAt int) (RunStats, error) {
	res, _, err := sp.runSnapshot(w, snapAt)
	return res, err
}

// runSnapshot is RunSnapshot, additionally returning the live kernel
// for callers that inspect post-run state (tests dump stats from it).
func (sp Spec) runSnapshot(w io.Writer, snapAt int) (RunStats, *kernel.Kernel, error) {
	sp = sp.withDefaults()
	if sp.Tracer.Enabled() || sp.Profile || sp.Journey != nil {
		return RunStats{}, nil, ErrSnapshotUnsupported
	}
	if !sp.Checkpoint {
		return RunStats{}, nil, fmt.Errorf("%w: snapshots are taken at checkpoint commits, and the spec's checkpoints are off", snapshot.ErrNotQuiescent)
	}
	if snapAt < 1 {
		snapAt = 1
	}
	k, _ := sp.boot()
	p := sp.spawn(k)
	defer p.Shutdown()

	k.RunFor(sp.Warmup)
	base := captureBaselines(k, p)

	var saveErr error
	saved := false
	commits := 0
	p.CommitHook = func(proc *kernel.Process) {
		if saved || saveErr != nil {
			return
		}
		commits++
		if commits < snapAt {
			return
		}
		saveErr = snapshot.Save(w, k, encodeUser(sp.fingerprint(proc), base))
		saved = true
	}
	k.RunFor(sp.Interval * sim.Time(sp.Checkpoints))
	if saveErr != nil {
		return RunStats{}, nil, saveErr
	}
	if !saved {
		return RunStats{}, nil, fmt.Errorf("%w: wanted commit %d, saw %d", ErrNoCommit, snapAt, commits)
	}
	return sp.collect(k, p, nil, base), k, nil
}

// ResumeRun boots a fresh kernel for the spec, restores the snapshot
// into it, and runs the remainder of the measured window. The spec must
// be the one that saved the snapshot (verified by fingerprint). The
// returned RunStats are byte-identical to those of the run that saved.
func (sp Spec) ResumeRun(r io.Reader) (RunStats, error) {
	res, _, err := sp.resume(r)
	if err != nil {
		return RunStats{}, err
	}
	return res, nil
}

// resume is ResumeRun, additionally returning the live kernel for
// callers that inspect post-run state (tests dump stats from it).
func (sp Spec) resume(r io.Reader) (RunStats, *kernel.Kernel, error) {
	sp = sp.withDefaults()
	if sp.Tracer.Enabled() || sp.Profile || sp.Journey != nil {
		return RunStats{}, nil, ErrSnapshotUnsupported
	}
	k, _ := sp.boot()
	p := sp.spawn(k)
	defer p.Shutdown()

	// Boot consumed the same engine sequence numbers and storage writes
	// as the original boot; restoration below overwrites all of it. The
	// warmup is NOT re-run — the snapshot carries its end state.
	resumed, err := snapshot.Resume(r, k)
	if err != nil {
		return RunStats{}, nil, err
	}
	base, err := decodeUser(resumed.User, sp.fingerprint(p))
	if err != nil {
		return RunStats{}, nil, err
	}
	if err := resumed.Finish(); err != nil {
		return RunStats{}, nil, err
	}
	k.Eng.RunUntil(base.start + sp.Interval*sim.Time(sp.Checkpoints))
	return sp.collect(k, p, nil, base), k, nil
}
