// Package snapshot saves how far a simulation got and resumes it by
// replay. The simulator is deterministic: a freshly booted kernel of the
// same configuration and spawn sequence dispatches the same events in
// the same order. So a snapshot need not carry machine state. It records
// the engine's cycle and the kernel's dispatched-event count
// (Kernel.Events), and Resume steps a fresh boot until it has dispatched
// as many events. The resumed kernel
// is then in the state the saved one was in after that event, and runs
// on byte-identically to a run that never stopped.
//
// A replayed run carries whatever observers its boot attached: a
// tracer, a journey recorder or a profiler can watch a resumed run that
// was saved without them. Kernel.Events leaves out the tracer's sampler
// ticks, so a traced replay stops at the same event as an untraced one. The price is time: Resume re-simulates the
// whole saved prefix, so its cost grows with the saved cycle.
//
// Format (all little-endian):
//
//	magic   u64  "PROSNAP1"
//	version u32  format version (currently 6)
//	userLen u64  length of the user payload
//	user    userLen bytes, opaque to this package
//	cycle   i64  engine cycle at Save (Engine.Now)
//	events  u64  events dispatched by Save (Kernel.Events)
//	crc     u32  IEEE CRC-32 of every byte before it
//
// The user payload comes back verbatim in Resumed.User. Any structural
// damage (bad magic, an unknown version, truncation, a CRC mismatch,
// trailing bytes) yields a typed error, never a panic.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"prosper/internal/kernel"
)

// Magic identifies a Prosper simulator snapshot ("PROSNAP1", little-endian).
const Magic = uint64(0x3150414e534f5250)

// Version is the current snapshot format version. Resume refuses any
// other version: a snapshot is a same-binary, same-configuration
// artifact, and replaying a record of another format would land on an
// unrelated event.
const Version = uint32(6)

// Frame sizes: the header before the user payload and the trailer
// after it.
const (
	headerLen  = 8 + 4 + 8
	trailerLen = 8 + 8 + 4
)

var (
	// ErrBadMagic reports input that is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated reports a snapshot cut short.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt reports a snapshot that is framed but fails validation:
	// a CRC mismatch or bytes after the trailer.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrNotFresh reports a resume into a kernel that has already
	// dispatched events: replay must start from boot.
	ErrNotFresh = errors.New("snapshot: kernel has already run")
	// ErrMismatch reports a replay that cannot reach the saved event at
	// the saved cycle: the kernel was booted with another configuration,
	// seed or spawn sequence than the one that saved.
	ErrMismatch = errors.New("snapshot: replay diverges from the saved run")
)

// Save records how far k has run: its engine cycle and dispatched-event
// count (Kernel.Events), with user stored verbatim beside them. It reads nothing else, so
// it may be called anywhere: inside an event (a commit hook, say) or
// between RunUntil calls. The run continues unperturbed afterwards.
func Save(w io.Writer, k *kernel.Kernel, user []byte) error {
	out := make([]byte, 0, headerLen+len(user)+trailerLen)
	out = binary.LittleEndian.AppendUint64(out, Magic)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(user)))
	out = append(out, user...)
	out = binary.LittleEndian.AppendUint64(out, uint64(k.Eng.Now()))
	out = binary.LittleEndian.AppendUint64(out, k.Events())
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	_, err := w.Write(out)
	return err
}

// Resumed is a successfully replayed simulation, stopped just after the
// event that was dispatching (or had last dispatched) when Save ran.
type Resumed struct {
	// User is the opaque payload stored by Save.
	User []byte
}

// Finish does nothing and returns nil: a replayed kernel is ready to run
// as soon as Resume returns. It exists only because the benchmark's
// snapshot probe (benchmark/harness.go) still calls it.
func (res *Resumed) Finish() error { return nil }

// Resume replays a snapshot into k, which must be freshly booted (no
// event dispatched yet) with the identical configuration and spawn
// sequence as the kernel that saved it. It steps k until it has
// dispatched as many events as the saved kernel had. If the save was
// taken between RunUntil calls, the saved cycle lies after that event;
// the clock then advances to it, provided no event is due at or before
// it. On failure k has run part of the replay and must be discarded.
func Resume(r io.Reader, k *kernel.Kernel) (*Resumed, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	user, cycle, events, err := parse(data)
	if err != nil {
		return nil, err
	}
	eng := k.Eng
	if n := eng.Fired(); n != 0 {
		return nil, fmt.Errorf("%w: %d events dispatched", ErrNotFresh, n)
	}
	for k.Events() < events {
		if !eng.Step() {
			return nil, fmt.Errorf("%w: queue drained after %d of %d events", ErrMismatch, k.Events(), events)
		}
		if eng.Now() > cycle {
			return nil, fmt.Errorf("%w: event %d fired at cycle %d, past the saved cycle %d",
				ErrMismatch, k.Events(), eng.Now(), cycle)
		}
	}
	if now := eng.Now(); now < cycle {
		// Saved between RunUntil calls: no event may fire on the way.
		eng.RunUntil(cycle)
		if k.Events() != events {
			return nil, fmt.Errorf("%w: events due between cycle %d and the saved cycle %d",
				ErrMismatch, now, cycle)
		}
	}
	return &Resumed{User: user}, nil
}

// parse validates the frame and returns its fields.
func parse(data []byte) (user []byte, cycle int64, events uint64, err error) {
	le := binary.LittleEndian
	if len(data) < 12 {
		return nil, 0, 0, ErrTruncated
	}
	if le.Uint64(data) != Magic {
		return nil, 0, 0, ErrBadMagic
	}
	if v := le.Uint32(data[8:]); v != Version {
		return nil, 0, 0, fmt.Errorf("%w: snapshot v%d, binary supports v%d", ErrVersion, v, Version)
	}
	if len(data) < headerLen {
		return nil, 0, 0, ErrTruncated
	}
	n := le.Uint64(data[12:])
	if rest := uint64(len(data) - headerLen); n > rest || rest-n < trailerLen {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte user payload with %d bytes remaining", ErrTruncated, n, rest)
	}
	end := headerLen + int(n) + trailerLen
	if crc := le.Uint32(data[end-4:]); crc32.ChecksumIEEE(data[:end-4]) != crc {
		return nil, 0, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if len(data) != end {
		return nil, 0, 0, fmt.Errorf("%w: %d trailing bytes after the trailer", ErrCorrupt, len(data)-end)
	}
	user = data[headerLen : headerLen+int(n)]
	tr := data[headerLen+int(n):]
	return user, int64(le.Uint64(tr)), le.Uint64(tr[8:]), nil
}
