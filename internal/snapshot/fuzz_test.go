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
// arbitrary input it must either replay to the saved event or return
// one of the typed contract errors (DESIGN.md §14), never panic and
// never return an error outside the typed set. An accepted snapshot
// saved again right away must come back byte-identical.
func FuzzResumeSnapshot(f *testing.F) {
	good := validSnapshot(f)
	f.Add(good)

	// Truncations at the frame's interesting offsets: inside the magic,
	// inside the version, inside the user length, inside the user
	// payload, inside the trailer.
	for _, n := range []int{0, 4, 11, 17, 40, len(good) / 2, len(good) - 1} {
		if n <= len(good) {
			f.Add(good[:n])
		}
	}
	// Bit flips across the whole frame: header fields, payload, trailer.
	for _, off := range []int{0, 8, 12, 16, 24, len(good) / 3, 2 * len(good) / 3, len(good) - 1} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}
	// A future format version with a plausible body.
	futur := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(futur[8:], snapshot.Version+1)
	f.Add(futur)
	// A user payload claiming more bytes than the frame holds.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(huge[12:], 1<<40)
	f.Add(huge)

	typed := []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrCorrupt, snapshot.ErrMismatch,
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
		var again bytes.Buffer
		if err := snapshot.Save(&again, k, resumed.User); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("re-save of an accepted snapshot differs: %x vs %x", again.Bytes(), data)
		}
	})
}
