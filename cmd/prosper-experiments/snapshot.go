package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/workload"
)

// snapshotSpec is the CLI's canonical snapshot workload: a small
// deterministic random-store microbenchmark checkpointing at the given
// interval. -snapshot-out and -resume-from must be given the same flags
// — the snapshot's embedded fingerprint refuses anything else.
func snapshotSpec(mech string, seed uint64, interval sim.Time, checkpoints int) (runner.Spec, error) {
	stack, ok := persist.ByName(mech)
	if !ok {
		return runner.Spec{}, fmt.Errorf("unknown snapshot mechanism %q (want one of %s)", mech, strings.Join(persist.Names(), ", "))
	}
	return runner.Spec{
		Name: "cli-snap-" + mech,
		Prog: func() workload.Program {
			return workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 128})
		},
		StackMech:   stack,
		Checkpoint:  true,
		Interval:    interval,
		Checkpoints: checkpoints,
		Seed:        seed,
	}, nil
}

// snapshotExit maps snapshot-path errors to exit codes: the typed
// snapshot contract errors (bad magic, corrupt sections, wrong spec,
// unsupported configuration, ...) exit 2 like other usage errors; plain
// I/O failures exit 1.
func snapshotExit(stderr io.Writer, context string, err error) int {
	fmt.Fprintf(stderr, "prosper-experiments: %s: %v\n", context, err)
	for _, typed := range []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrCorrupt, snapshot.ErrNotQuiescent,
		runner.ErrSnapshotUnsupported, runner.ErrSpecMismatch, runner.ErrNoCommit,
	} {
		if errors.Is(err, typed) {
			return 2
		}
	}
	return 1
}

// printRunStats renders the deterministic headline numbers of a run so
// a saved-then-resumed pair can be diffed by eye (or by cmp: the full
// RunStats equality is pinned by the resume gate tests).
func printRunStats(stdout io.Writer, res runner.RunStats) {
	fmt.Fprintf(stdout, "%s: user_ops=%d user_cycles=%d checkpoints=%d checkpoint_bytes=%d events_fired=%d sim_end=%d\n",
		res.Name, res.UserOps, res.UserCycles, res.Checkpoints, res.CheckpointBytes, res.EventsFired, res.SimEnd)
}

// runSnapshotSave runs the snapshot spec, saving a machine snapshot to
// path at the snapAt-th checkpoint commit, and prints the run's stats.
func runSnapshotSave(stdout, stderr io.Writer, path, mech string, seed uint64, interval sim.Time, checkpoints, snapAt int) int {
	sp, err := snapshotSpec(mech, seed, interval, checkpoints)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-experiments:", err)
		return 2
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-experiments:", err)
		return 1
	}
	res, err := sp.RunSnapshot(f, snapAt)
	if err != nil {
		f.Close()
		return snapshotExit(stderr, "snapshot", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "prosper-experiments:", err)
		return 1
	}
	printRunStats(stdout, res)
	fmt.Fprintf(stderr, "[snapshot of commit %d written to %s]\n", snapAt, path)
	return 0
}

// runResume restores a snapshot saved by runSnapshotSave into a fresh
// kernel, finishes the measured window, and prints the run's stats —
// byte-identical to what the saving run printed.
func runResume(stdout, stderr io.Writer, path, mech string, seed uint64, interval sim.Time, checkpoints int) int {
	sp, err := snapshotSpec(mech, seed, interval, checkpoints)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-experiments:", err)
		return 2
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "prosper-experiments:", err)
		return 1
	}
	defer f.Close()
	res, err := sp.ResumeRun(f)
	if err != nil {
		return snapshotExit(stderr, "resume", err)
	}
	printRunStats(stdout, res)
	return 0
}
