// Package persist implements the memory-persistence mechanisms the paper
// evaluates and compares: the Prosper checkpoint mechanism (adapting the
// internal/prosper hardware tracker to the OS checkpoint flow), the
// page-granularity Dirtybit baseline (LDT-style), a write-protection
// tracker (SoftDirty-style), Romulus (twin-copy with hardware-logged
// stack modifications), and SSP (sub-page shadow paging with a background
// consolidation thread).
//
// A Mechanism persists one memory segment (a thread's stack or a
// process's heap). The kernel attaches mechanisms to segments, routes
// store notifications to them, sequences their checkpoint steps at every
// consistency interval, and drives their recovery path after a crash.
package persist

import (
	"encoding/binary"
	"fmt"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/vm"
)

// Env is the hardware/OS environment mechanisms operate in.
type Env struct {
	Mach *machine.Machine
	AS   *vm.AddressSpace
	// Trackers are the per-core Prosper dirty trackers (nil when the
	// machine is built without them).
	Trackers []*prosper.Tracker
	// Attrib, when non-nil, is the owning process's checkpoint-stall
	// attribution register. Mechanisms switch the active cause as their
	// checkpoint phases progress; outside a kernel-opened epoch every
	// switch is a no-op.
	Attrib *Attrib
}

// Eng returns the simulation engine.
func (e *Env) Eng() *sim.Engine { return e.Mach.Eng }

// Segment describes the memory region a mechanism persists, plus the NVM
// areas the kernel assigned to it.
type Segment struct {
	Lo, Hi uint64     // virtual range
	Kind   vm.VMAKind // stack or heap

	// ImageBase is a physically contiguous NVM area of (Hi-Lo) bytes
	// holding the persistent image (or backup copy for Romulus).
	ImageBase uint64
	// MetaBase/MetaSize is a physically contiguous NVM area for commit
	// records, temp buffers, and logs.
	MetaBase uint64
	MetaSize uint64
}

// Size returns the segment length.
func (s Segment) Size() uint64 { return s.Hi - s.Lo }

// Result reports one checkpoint of one segment.
type Result struct {
	BytesCopied uint64 // dirty payload persisted
	Ranges      uint64 // contiguous extents copied
	MetaScanned uint64 // metadata units inspected (bitmap words or PTEs)
}

// Mechanism persists one segment across consistency intervals.
type Mechanism interface {
	Name() string
	// PlaceInNVM reports whether the segment's working pages must be
	// allocated from NVM (shadow-paging and twin-copy schemes) rather
	// than DRAM (checkpointing schemes).
	PlaceInNVM() bool
	// Attach binds the mechanism to its environment and segment. Called
	// once, before any store reaches the segment.
	Attach(env *Env, seg Segment)
	// OnStore observes one store into the segment (post-translation) and
	// returns any stall the store pipeline must absorb before the store
	// retires (zero for mechanisms that track out of the critical path).
	OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time
	// OnScheduleIn/OnScheduleOut bracket the owning thread's placement on
	// a core (context switches and checkpoint pauses). done fires when
	// the mechanism's hardware state is ready/quiescent.
	OnScheduleIn(core *machine.Core, done func())
	OnScheduleOut(core *machine.Core, done func())
	// BeginInterval resets tracking state for a new consistency interval.
	BeginInterval()
	// Checkpoint persists the interval's modifications to NVM; done fires
	// when the data is durable (commit record written).
	Checkpoint(done func(Result))
	// Recover rebuilds the segment's volatile state from NVM after a
	// crash (for DRAM-resident segments: copy the image back; for
	// NVM-resident segments: repair in place). done fires when complete.
	Recover(done func())
	// Stats returns the mechanism's counters for the kernel's stats
	// dump. A method rather than the field, so wrappers that embed a
	// Mechanism forward it.
	Stats() *stats.Counters
}

// Factory builds a fresh mechanism instance (one per segment).
type Factory func() Mechanism

// applyState is the explicit state of an in-flight step 2 (temp ->
// image apply), which drains in the background while the application
// runs. Keeping it as plain data beside the prebound applyStepTok and
// applyHdrTok lets each extent copy complete without a fresh closure.
type applyState struct {
	seq     uint64
	count   uint64
	total   uint64
	pending int
}

// base carries the fields every mechanism shares.
type base struct {
	env *Env
	seg Segment
	seq uint64

	// applying is true while a previous checkpoint's step 2 (temp ->
	// image) is still draining in the background; the next checkpoint
	// must wait before reusing the temp buffer.
	applying     bool
	applyWaiters []func()
	apply        applyState

	// applyStepTok completes one extent copy of step 2; applyHdrTok
	// completes the final phase-applied header write. Both are bound once
	// at attach.
	applyStepTok sim.Done
	applyHdrTok  sim.Done

	// brokenFence deliberately commits the step-1 record without waiting
	// for the payload to become durable. It exists only so the crash-sweep
	// harness can prove it detects a mis-fenced mechanism; see
	// NewBrokenFence.
	brokenFence bool

	Counters *stats.Counters
}

// Stats implements Mechanism.
func (b *base) Stats() *stats.Counters { return b.Counters }

func (b *base) attach(env *Env, seg Segment) {
	b.env = env
	b.seg = seg
	// Resume the durable commit sequence: after a post-crash re-attach the
	// meta area carries the last sequence that reached NVM, and fresh
	// segments read zero from their never-touched area.
	b.seq = readCommitRecord(env.Mach.Storage, seg.MetaBase).seq
	b.applyStepTok = sim.Thunk(sim.CompPersist, b.applyStep)
	b.applyHdrTok = sim.Thunk(sim.CompPersist, b.applyHdrDone)
	b.Counters = stats.NewCounters()
}

// DurableSegmentSeq reads a segment's durable commit sequence from its
// meta area on a (possibly crashed) storage image. ok is false when the
// segment has never written a commit record — mechanisms without a
// durable sequence, or segments that never checkpointed.
func DurableSegmentSeq(st *mem.Storage, metaBase uint64) (seq uint64, ok bool) {
	r := readCommitRecord(st, metaBase)
	if r.phase == phaseEmpty || r.phase > phaseApplied {
		return 0, false
	}
	return r.seq, true
}

// CheckSegment validates a segment's commit record and entry table on a
// (possibly crashed) storage image: metaBase and metaSize locate the
// meta area, segSize bounds the entries. It returns one line per
// problem, each starting with label, and nil when the record is
// consistent.
func CheckSegment(st *mem.Storage, label string, metaBase, metaSize, segSize uint64) []string {
	r := readCommitRecord(st, metaBase)
	if r.phase > phaseApplied {
		return []string{fmt.Sprintf("%s: invalid commit phase %d", label, r.phase)}
	}
	if r.phase == phaseEmpty {
		return nil // never checkpointed
	}
	var problems []string
	// The entry table and totals are only guaranteed durable while the
	// commit record is in the temp-valid phase: the step-1 commit write
	// fences them, and recovery replays from them. Once the record is in
	// the applied phase the table may legitimately be mid-overwrite by the
	// next checkpoint's in-flight gather, so it is not validated then.
	if r.phase == phaseTempValid {
		if payloadBase(metaBase, r.count)+r.total > metaBase+metaSize {
			return []string{fmt.Sprintf("%s: payload (%d entries, %d bytes) overflows meta area", label, r.count, r.total)}
		}
		var sum uint64
		for i := uint64(0); i < r.count; i++ {
			e := readEntry(st, metaBase, i)
			if e.size == 0 {
				return []string{fmt.Sprintf("%s: entry %d has zero size", label, i)}
			}
			if e.off+e.size > segSize {
				return []string{fmt.Sprintf("%s: entry %d [%#x+%d] outside segment (%d bytes)", label, i, e.off, e.size, segSize)}
			}
			sum += e.size
		}
		if sum != r.total {
			problems = append(problems, fmt.Sprintf("%s: entry sizes sum to %d, header says %d", label, sum, r.total))
		}
	}
	if r.minOff > segSize {
		problems = append(problems, fmt.Sprintf("%s: image low-water mark %d beyond segment", label, r.minOff-1))
	}
	return problems
}

// --- shared checkpoint plumbing -------------------------------------------

// Commit-record phases stored in the first meta word.
const (
	phaseEmpty     = uint64(0)
	phaseTempValid = uint64(1) // temp buffer complete, apply may be partial
	phaseApplied   = uint64(2) // image consistent with checkpoint seq
)

// Meta layout (all offsets from Segment.MetaBase):
//
//	0	phase
//	8	seq
//	16	entry count
//	24	total payload bytes
//	32	minimum persisted offset ever (image extent low-water mark)
//	64	entry table: {offset uint64, size uint64} per entry
//	…	payload blob (64-byte aligned after the entry table)
const (
	metaPhase   = 0
	metaSeq     = 8
	metaCount   = 16
	metaBytes   = 24
	metaMinOff  = 32
	metaEntries = 64
)

// commitRecord is the record at the head of a segment's meta area, in
// the layout above; readCommitRecord and makeHeader are its one decoder
// and encoder.
type commitRecord struct {
	phase  uint64
	seq    uint64
	count  uint64 // entry-table length
	total  uint64 // payload bytes
	minOff uint64 // image extent low-water mark plus one (0: none yet)
}

func readCommitRecord(st *mem.Storage, metaBase uint64) commitRecord {
	return commitRecord{
		phase:  st.ReadU64(metaBase + metaPhase),
		seq:    st.ReadU64(metaBase + metaSeq),
		count:  st.ReadU64(metaBase + metaCount),
		total:  st.ReadU64(metaBase + metaBytes),
		minOff: st.ReadU64(metaBase + metaMinOff),
	}
}

// payloadBase is where the payload blob behind a count-entry table
// starts (64-byte aligned).
func payloadBase(metaBase, count uint64) uint64 {
	return metaBase + metaEntries + ((count*16 + 63) &^ 63)
}

// readEntry returns entry i of the entry table.
func readEntry(st *mem.Storage, metaBase, i uint64) extent {
	at := metaBase + metaEntries + i*16
	return extent{off: st.ReadU64(at), size: st.ReadU64(at + 8)}
}

type extent struct {
	off  uint64 // offset within the segment
	size uint64
}

// persistExtents runs the paper's two-step stack update for a set of
// dirty extents of a DRAM-resident segment:
//
//  1. copy each extent's bytes (and an entry table) into the temp buffer
//     in NVM and write a commit record marking the temp valid — this is
//     the durability point, after which done fires and the application
//     may resume;
//  2. apply the temp buffer onto the persistent image in NVM and mark the
//     record applied — a redo that runs in the background; the next
//     checkpoint waits for it before reusing the temp buffer.
//
// A crash before step 1's commit loses at most the current interval; a
// crash during (or before) step 2 is repaired by re-applying the
// (idempotent) temp buffer at recovery.
func (b *base) persistExtents(extents []extent, done func(Result)) {
	if b.applying {
		// Previous apply still draining (only possible under extreme
		// interval compression): serialize behind it.
		b.Counters.Inc("persist.apply_backpressure")
		b.applyWaiters = append(b.applyWaiters, func() { b.persistExtents(extents, done) })
		return
	}
	var res Result
	res.Ranges = uint64(len(extents))
	b.seq++
	seq := b.seq
	m := b.env.Mach
	attrib := b.env.Attrib
	attrib.Switch(CauseCopy)

	if len(extents) == 0 {
		// Nothing dirty: still write a commit record so recovery can see
		// the checkpoint happened.
		attrib.Switch(CauseCommitFence)
		hdr := b.makeHeader(phaseApplied, seq, 0, 0)
		m.WritePhys(b.seg.MetaBase, hdr, func() { done(res) })
		return
	}

	entryBytes := uint64(len(extents)) * 16
	dataBase := payloadBase(b.seg.MetaBase, uint64(len(extents)))

	// Step 1a: entry table.
	table := make([]byte, entryBytes)
	var total uint64
	for i, e := range extents {
		binary.LittleEndian.PutUint64(table[i*16:], e.off)
		binary.LittleEndian.PutUint64(table[i*16+8:], e.size)
		total += e.size
	}
	res.BytesCopied = total
	if dataBase+total > b.seg.MetaBase+b.seg.MetaSize {
		panic("persist: temp buffer overflow — meta area too small")
	}

	// Step 1b: gather the payload into the temp blob. The sources are
	// scattered DRAM lines (timed reads); the temp blob is contiguous
	// NVM, written as one streaming burst.
	cursor := dataBase
	var srcLines []uint64
	for _, e := range extents {
		vaddr := b.seg.Lo + e.off
		remaining := e.size
		for remaining > 0 {
			paddr, _, ok := b.env.AS.PT.Translate(vaddr)
			if !ok {
				panic("persist: dirty extent not mapped")
			}
			n := mem.PageSize - (vaddr & (mem.PageSize - 1))
			if n > remaining {
				n = remaining
			}
			m.Storage.Copy(cursor, paddr, int(n)) // functional gather
			for l := mem.LineOf(paddr); l <= mem.LineOf(paddr+n-1); l += mem.LineSize {
				srcLines = append(srcLines, l)
			}
			cursor += n
			vaddr += n
			remaining -= n
		}
	}
	// Step 1c: commit record (temp valid). The low-water mark must be
	// updated before the header snapshot reads it back.
	commitRecord := func() {
		attrib.Switch(CauseCommitFence)
		minOff := extents[0].off
		for _, e := range extents {
			if e.off < minOff {
				minOff = e.off
			}
		}
		b.updateMinOff(minOff)
		hdr := b.makeHeader(phaseTempValid, seq, uint64(len(extents)), total)
		m.WritePhys(b.seg.MetaBase, hdr, func() {
			// Durability point: release the caller, then run step 2 in
			// the background.
			b.applying = true
			done(res)
			b.applyAsync(seq, uint64(len(extents)), total, dataBase, extents)
		})
	}
	pending := 3    // source reads + blob write + entry table write
	gatherLeft := 2 // source reads + entry table write (the copy phase)
	commit := func() {
		pending--
		if pending != 0 {
			return
		}
		commitRecord()
	}
	gatherCommit := func() {
		gatherLeft--
		if gatherLeft == 0 && pending > 1 {
			// Gather finished but the temp-blob NVM burst is still
			// draining: the critical path is now the write queue.
			attrib.Switch(CauseNVMDrain)
		}
		commit()
	}
	if b.brokenFence {
		// Broken on purpose: the commit record is issued BEFORE the
		// payload it is supposed to order after, and the blob's flush is
		// forgotten outright — the classic missing clwb+sfence pair. The
		// temp-valid record becomes durable while the durable temp blob
		// still holds the previous interval's bytes, so a power failure
		// inside the window makes recovery roll stale data forward. Only
		// NewBrokenFence sets this.
		commit = func() {}
		commitRecord()
	}
	// Timed traffic for the gather: scattered DRAM reads of the sources
	// (pipelined) and a contiguous NVM write of the blob.
	readPhysLines(m, srcLines, gatherCommit)
	m.WritePhys(b.seg.MetaBase+metaEntries, table, gatherCommit)
	if !b.brokenFence {
		// The functional blob is already in place; issue the timed burst.
		writePhysRange(m, dataBase, total, commit)
	}
}

// applyAsync is step 2: redo the temp buffer onto the image, in the
// background past the checkpoint commit. Its progress lives in b.apply
// (plain data) and its completions ride the two reusable tokens, so the
// apply allocates nothing per extent.
func (b *base) applyAsync(seq, count, total uint64, dataBase uint64, extents []extent) {
	m := b.env.Mach
	b.apply = applyState{seq: seq, count: count, total: total, pending: len(extents)}
	if b.apply.pending == 0 {
		b.applyFinish()
		return
	}
	cursor := dataBase
	for _, e := range extents {
		m.CopyPhysTok(b.seg.ImageBase+e.off, cursor, int(e.size), b.applyStepTok)
		cursor += e.size
	}
}

// applyStep completes one extent copy of step 2.
func (b *base) applyStep() {
	b.apply.pending--
	if b.apply.pending == 0 {
		b.applyFinish()
	}
}

// applyFinish writes the phase-applied header once every extent copy of
// step 2 has drained.
func (b *base) applyFinish() {
	hdr2 := b.makeHeader(phaseApplied, b.apply.seq, b.apply.count, b.apply.total)
	b.env.Mach.WritePhysTok(b.seg.MetaBase, hdr2, b.applyHdrTok)
}

// applyHdrDone retires step 2 and releases any checkpoint serialized
// behind the temp buffer.
func (b *base) applyHdrDone() {
	b.applying = false
	waiters := b.applyWaiters
	b.applyWaiters = nil
	for _, w := range waiters {
		w()
	}
}

// lineGather pipelines timed reads of scattered line addresses through a
// fixed window; one record and one bound completion token replace the
// per-line closures (checkpoints gather thousands of lines).
type lineGather struct {
	m         *machine.Machine
	lines     []uint64
	issued    int
	completed int
	inFlight  int
	done      func()
	tok       sim.Done
}

// readPhysLines issues pipelined timed reads of the given line addresses
// (used to charge scattered source gathers).
func readPhysLines(m *machine.Machine, lines []uint64, done func()) {
	if len(lines) == 0 {
		m.Eng.Schedule(sim.CompPersist, 0, done)
		return
	}
	g := &lineGather{m: m, lines: lines, done: done}
	g.tok = sim.Thunk(sim.CompPersist, g.lineDone)
	g.pump()
}

func (g *lineGather) pump() {
	const window = 16
	for g.inFlight < window && g.issued < len(g.lines) {
		addr := g.lines[g.issued]
		g.issued++
		g.inFlight++
		g.m.Ctl.Access(false, addr, g.tok)
	}
}

func (g *lineGather) lineDone() {
	g.inFlight--
	g.completed++
	if g.completed == len(g.lines) {
		g.done()
		return
	}
	g.pump()
}

// rangeWrite joins the fan-out of line writes covering one contiguous
// range back into a single completion.
type rangeWrite struct {
	remaining int
	done      func()
	tok       sim.Done
}

func (w *rangeWrite) lineDone() {
	w.remaining--
	if w.remaining == 0 {
		w.done()
	}
}

// writePhysRange issues the timed line writes covering [base, base+n)
// without re-writing functional storage (already gathered).
func writePhysRange(m *machine.Machine, base uint64, n uint64, done func()) {
	lines := mem.LinesSpanned(base, int(n))
	if lines == 0 {
		m.Eng.Schedule(sim.CompPersist, 0, done)
		return
	}
	w := &rangeWrite{remaining: lines, done: done}
	w.tok = sim.Thunk(sim.CompPersist, w.lineDone)
	for i := 0; i < lines; i++ {
		m.Ctl.Access(true, mem.LineOf(base)+uint64(i)*mem.LineSize, w.tok)
	}
}

// makeHeader builds the 64-byte commit record, preserving the image
// extent low-water mark already in NVM.
func (b *base) makeHeader(phase, seq, count, total uint64) []byte {
	hdr := make([]byte, 64)
	binary.LittleEndian.PutUint64(hdr[metaPhase:], phase)
	binary.LittleEndian.PutUint64(hdr[metaSeq:], seq)
	binary.LittleEndian.PutUint64(hdr[metaCount:], count)
	binary.LittleEndian.PutUint64(hdr[metaBytes:], total)
	binary.LittleEndian.PutUint64(hdr[metaMinOff:], b.env.Mach.Storage.ReadU64(b.seg.MetaBase+metaMinOff))
	return hdr
}

func (b *base) updateMinOff(off uint64) {
	st := b.env.Mach.Storage
	cur := st.ReadU64(b.seg.MetaBase + metaMinOff)
	if cur == 0 {
		// 0 doubles as "never persisted"; store off+1 to disambiguate.
		st.WriteU64(b.seg.MetaBase+metaMinOff, off+1)
		return
	}
	if off+1 < cur {
		st.WriteU64(b.seg.MetaBase+metaMinOff, off+1)
	}
}

// recoverImage restores a DRAM-resident segment from its NVM image:
// re-apply a valid-but-unapplied temp buffer, then copy the persisted
// extent of the image back into freshly mapped DRAM pages.
func (b *base) recoverImage(done func()) {
	st := b.env.Mach.Storage
	r := readCommitRecord(st, b.seg.MetaBase)
	if r.minOff == 0 {
		// Never checkpointed anything.
		b.env.Eng().Schedule(sim.CompPersist, 0, done)
		return
	}
	// The recovered extent starts at the page of the lowest offset ever
	// persisted.
	lo := b.seg.Lo + ((r.minOff - 1) &^ (mem.PageSize - 1))

	if r.phase == phaseTempValid {
		// Crash during apply: redo temp -> image (idempotent).
		pending := int(r.count)
		if pending == 0 {
			b.copyBack(lo, done)
			return
		}
		cursor := payloadBase(b.seg.MetaBase, r.count)
		for i := uint64(0); i < r.count; i++ {
			e := readEntry(st, b.seg.MetaBase, i)
			b.env.Mach.CopyPhys(b.seg.ImageBase+e.off, cursor, int(e.size), func() {
				pending--
				if pending == 0 {
					b.copyBack(lo, done)
				}
			})
			cursor += e.size
		}
		return
	}
	b.copyBack(lo, done)
}

// copyBack maps the segment from lo (page-aligned) to its top and copies
// the image into the mapped frames one page at a time, calling done once
// every copy has landed (as an event at once if there is none).
func (b *base) copyBack(lo uint64, done func()) {
	b.env.AS.EnsureRange(lo, b.seg.Hi)
	pending := 0
	fired := false
	complete := func() {
		pending--
		if pending == 0 && fired {
			done()
		}
	}
	for va := lo; va < b.seg.Hi; va += mem.PageSize {
		paddr, _, ok := b.env.AS.PT.Translate(va)
		if !ok {
			panic("persist: recovery mapping failed")
		}
		pending++
		b.env.Mach.CopyPhys(paddr, b.seg.ImageBase+(va-b.seg.Lo), mem.PageSize, complete)
	}
	fired = true
	if pending == 0 {
		b.env.Eng().Schedule(sim.CompPersist, 0, done)
	}
}

// timedScan charges the CPU+memory cost of scanning n metadata units that
// occupy the given physical range (bitmap words, PTE cachelines): a
// pipelined read of the underlying lines plus perUnit cycles of CPU work.
func timedScan(m *machine.Machine, physBase uint64, bytes uint64, n uint64, perUnit sim.Time, done func()) {
	cpu := sim.Time(n) * perUnit
	if bytes == 0 {
		m.Eng.Schedule(sim.CompPersist, cpu, done)
		return
	}
	m.ReadPhys(physBase, int(bytes), func() {
		m.Eng.Schedule(sim.CompPersist, cpu, done)
	})
}
