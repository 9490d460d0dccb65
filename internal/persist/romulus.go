package persist

import (
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/sim"
)

// Romulus implements the twin-copy persistence scheme of Correia et al.
// adapted for the stack the way the paper describes (Section IV-A): both
// the main and backup copies live in NVM; a hardware component logs the
// address and size of every stack modification; at each consistency
// interval the software copies the modifications from main to backup by
// replaying the log entries — without coalescing, so overlapping
// addresses are copied repeatedly, which is what makes it expensive.
type Romulus struct {
	base
	logEntries []extent
	logBytes   uint64
	maxEntries int
}

// NewRomulus returns a factory for the Romulus mechanism.
func NewRomulus() Factory { return func() Mechanism { return &Romulus{} } }

// Name implements Mechanism.
func (r *Romulus) Name() string { return "romulus" }

// PlaceInNVM implements Mechanism: both copies live in NVM.
func (r *Romulus) PlaceInNVM() bool { return true }

// Attach implements Mechanism.
func (r *Romulus) Attach(env *Env, seg Segment) {
	r.attach(env, seg)
	// Each log record is 16 bytes in the meta area (after the header).
	r.maxEntries = int((seg.MetaSize - metaEntries) / 16)
}

// OnStore implements Mechanism: the hardware component appends a log
// entry per stack modification. Log appends hit NVM; consecutive entries
// share cache lines, so one NVM line write is issued per 64 bytes of log.
func (r *Romulus) OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	if len(r.logEntries) >= r.maxEntries {
		// Log full mid-interval: drop to a coarse full-segment record.
		// (Real Romulus would block; the experiments size the log to
		// avoid this, and the counter makes overflow visible.)
		r.Counters.Inc("romulus.log_overflow")
		return 0
	}
	r.logEntries = append(r.logEntries, extent{off: vaddr - r.seg.Lo, size: uint64(size)})
	r.Counters.Inc("romulus.log_entries")
	before := r.logBytes / mem.LineSize
	r.logBytes += 16
	if r.logBytes/mem.LineSize != before {
		// A fresh log line became full: write it back to NVM.
		lineAddr := r.seg.MetaBase + metaEntries + before*mem.LineSize
		r.env.Mach.Ctl.Access(true, lineAddr, sim.Done{})
		r.Counters.Inc("romulus.log_line_writes")
	}
	// The hardware log write buffers; the store itself is not stalled.
	return 0
}

// OnScheduleIn implements Mechanism.
func (r *Romulus) OnScheduleIn(core *machine.Core, done func()) { done() }

// OnScheduleOut implements Mechanism.
func (r *Romulus) OnScheduleOut(core *machine.Core, done func()) { done() }

// BeginInterval implements Mechanism.
func (r *Romulus) BeginInterval() {}

// Checkpoint implements Mechanism: replay every log entry main -> backup,
// one NVM read + NVM write per entry, with no coalescing of overlapping
// addresses. The window of in-flight copies is small, like a software
// copy loop.
func (r *Romulus) Checkpoint(done func(Result)) {
	// Log replay main -> backup is pure payload copy.
	r.env.Attrib.Switch(CauseCopy)
	entries := r.logEntries
	r.logEntries = r.logEntries[:0]
	r.logBytes = 0

	var res Result
	res.Ranges = uint64(len(entries))
	res.MetaScanned = uint64(len(entries))
	if len(entries) == 0 {
		r.env.Eng().Schedule(sim.CompPersist, 0, func() { done(res) })
		return
	}
	m := r.env.Mach
	const window = 4
	issued, completed, inFlight := 0, 0, 0
	var pump func()
	pump = func() {
		for inFlight < window && issued < len(entries) {
			e := entries[issued]
			issued++
			inFlight++
			res.BytesCopied += e.size
			vaddr := r.seg.Lo + e.off
			paddr, _, ok := r.env.AS.PT.Translate(vaddr)
			if !ok {
				panic("persist: romulus log entry not mapped")
			}
			// main (NVM) -> backup (NVM image area).
			m.CopyPhys(r.seg.ImageBase+e.off, paddr, int(e.size), func() {
				inFlight--
				completed++
				if completed == len(entries) {
					done(res)
					return
				}
				pump()
			})
		}
	}
	pump()
}

// Recover implements Mechanism: the backup twin in the image area is the
// consistent copy (the main copy may hold stores from the interrupted
// interval, and a fresh boot hands the segment new NVM frames anyway),
// so recovery maps the segment and copies the backup into the new main
// frames. The backup is offset-contiguous, and lines never logged are
// zero in both twins, so a whole-segment copy is exact.
func (r *Romulus) Recover(done func()) { r.copyBack(r.seg.Lo, done) }
