package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/workload"
)

// bootFuzzKernel builds the small deterministic machine every fuzz
// iteration resumes into: one core, one checkpointing counter process.
func bootFuzzKernel() (*kernel.Kernel, *kernel.Process) {
	k := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}})
	p := k.Spawn(kernel.ProcessConfig{
		Name:               "fuzz",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		StackReserve:       16 << 10,
		HeapSize:           64 << 10,
		CheckpointInterval: 50 * sim.Microsecond,
	}, workload.NewCounter(1<<30))
	return k, p
}

// validSnapshot runs the fuzz machine to its first checkpoint commit
// and saves real snapshot bytes there.
func validSnapshot(f *testing.F) []byte {
	k, p := bootFuzzKernel()
	defer p.Shutdown()
	var buf bytes.Buffer
	saved := false
	p.CommitHook = func(*kernel.Process) {
		if saved {
			return
		}
		if err := snapshot.Save(&buf, k, []byte("fuzz-user-payload")); err != nil {
			f.Fatal(err)
		}
		saved = true
	}
	for i := 0; i < 16 && !saved; i++ {
		k.RunFor(50 * sim.Microsecond)
	}
	if !saved {
		f.Fatal("fuzz machine never committed a checkpoint")
	}
	return buf.Bytes()
}

// FuzzResumeSnapshot hardens Resume against malformed snapshots: for
// arbitrary input it must either restore a machine or return one of the
// typed contract errors (DESIGN.md §14) — never panic, never return an
// error outside the typed set.
func FuzzResumeSnapshot(f *testing.F) {
	good := validSnapshot(f)
	f.Add(good)

	// Truncations at the framing's interesting offsets: inside the
	// magic, inside a section header, inside a section payload.
	for _, n := range []int{0, 4, 11, 17, 40, len(good) / 2, len(good) - 1} {
		if n <= len(good) {
			f.Add(good[:n])
		}
	}
	// Bit flips across the whole file: header fields, CRCs, payloads.
	for _, off := range []int{0, 8, 12, 16, 24, len(good) / 3, 2 * len(good) / 3, len(good) - 1} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}
	// A future format version with a plausible body.
	futur := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(futur[8:], snapshot.Version+1)
	f.Add(futur)
	// A section claiming more payload than the file holds.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(huge[16:], 1<<40)
	f.Add(huge)

	typed := []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrCorrupt, snapshot.ErrNotQuiescent,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, p := bootFuzzKernel()
		defer p.Shutdown()
		resumed, err := snapshot.Resume(bytes.NewReader(data), k)
		if err != nil {
			for _, te := range typed {
				if errors.Is(err, te) {
					return
				}
			}
			t.Fatalf("Resume returned an error outside the typed set: %v", err)
		}
		// Accepted input: finishing the resume and re-saving must not
		// panic either (byte-idempotence of genuine snapshots is pinned
		// separately by TestSnapshotIdempotent).
		if err := snapshot.Save(&bytes.Buffer{}, k, resumed.User); err != nil {
			t.Fatalf("re-save of an accepted snapshot failed: %v", err)
		}
		if err := resumed.Finish(); err != nil {
			t.Fatalf("Finish of an accepted snapshot failed: %v", err)
		}
	})
}
