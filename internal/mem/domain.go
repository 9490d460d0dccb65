package mem

import (
	"fmt"
	"slices"

	"prosper/internal/sim"
)

// Domain models the NVM persistence domain: the boundary between data
// that survives a power failure and data that does not.
//
// Function and timing are split in this simulator (Storage holds bytes
// immediately; Device computes completion times), so without a domain a
// crash at an arbitrary cycle could never lose a write still sitting in
// the NVM write buffer — the persistence domain would be effectively
// infinite. Domain closes that gap: the machine's shared Storage is the
// *volatile* view (caches, buffers, in-flight writes), while Domain
// keeps a private durable shadow of the NVM range that a line only
// enters when the device's timed write for it completes.
//
// The protocol, driven by Device via the PersistSink interface:
//
//   - WriteAdmitted(addr) fires when a write begins service at the
//     device. The functional bytes for the line are already in the live
//     Storage at that point (functional-first simulation), so Domain
//     snapshots the line into a per-line FIFO of in-flight values.
//   - WriteCompleted(addr) fires when that write's latency elapses; the
//     oldest in-flight snapshot of the line merges into the durable
//     shadow. Per-line completion order matches admission order because
//     bank occupancy is monotone and the write latency is constant.
//
// On power failure, no-ADR mode (the default) drops every in-flight
// snapshot: only completed writes survive. ADR mode models asynchronous
// DRAM refresh-style flush-on-fail hardware: writes already *admitted*
// to the device are drained into the durable shadow (newest snapshot
// per line wins), but writes still in caches or never issued are lost
// either way. Tearing is at cache-line granularity in both modes: a
// multi-line update can survive partially, but a single line is always
// entirely old or entirely new.
type Domain struct {
	live    *Storage
	durable *Storage
	adr     bool

	pending map[uint64][]lineSnap // line base -> FIFO of admitted snapshots
	// snapPool recycles drained FIFO backings: the common case is one
	// in-flight write per line, so without the pool every first admission
	// of a line allocates a fresh single-snapshot slice.
	snapPool [][]lineSnap

	// journal, when set, receives every input the domain applies. It is
	// an observer: recording never changes what the domain does.
	journal *Journal
}

type lineSnap [LineSize]byte

// NewDomain builds the persistence domain over the machine's live
// Storage. Any NVM pages already materialized are treated as durable:
// the post-crash reboot path hands the surviving image to a fresh
// machine, and everything in it has by construction already persisted.
func NewDomain(live *Storage, adr bool) *Domain {
	return &Domain{
		live:    live,
		durable: live.CloneRange(NVMBase, NVMSize),
		adr:     adr,
		pending: make(map[uint64][]lineSnap),
	}
}

// ADR reports whether the domain drains admitted writes on power loss.
func (d *Domain) ADR() bool { return d.adr }

// WriteAdmitted implements PersistSink: snapshot the line's current
// functional value as the payload of a write now in flight.
func (d *Domain) WriteAdmitted(addr uint64) {
	if !IsNVM(addr) {
		return
	}
	line := LineOf(addr)
	var snap lineSnap
	d.live.Read(line, snap[:])
	if j := d.journal; j != nil {
		j.recs = append(j.recs, journalRec{at: j.eng.Now(), kind: journalAdmit, addr: line})
		j.lines = append(j.lines, snap)
	}
	d.admit(line, &snap)
}

// admit appends snap to the in-flight FIFO of line.
func (d *Domain) admit(line uint64, snap *lineSnap) {
	q, ok := d.pending[line]
	if !ok {
		if n := len(d.snapPool); n > 0 {
			q = d.snapPool[n-1]
			d.snapPool = d.snapPool[:n-1]
		}
	}
	d.pending[line] = append(q, *snap)
}

// WriteCompleted implements PersistSink: the oldest in-flight write of
// the line reached the media; merge its snapshot into the durable shadow.
func (d *Domain) WriteCompleted(addr uint64) {
	if !IsNVM(addr) {
		return
	}
	line := LineOf(addr)
	if j := d.journal; j != nil {
		j.recs = append(j.recs, journalRec{at: j.eng.Now(), kind: journalComplete, addr: line})
	}
	d.complete(line)
}

// complete merges the oldest in-flight snapshot of line, if any, into
// the durable shadow.
func (d *Domain) complete(line uint64) {
	q := d.pending[line]
	if len(q) == 0 {
		return
	}
	d.durable.Write(line, q[0][:])
	if len(q) == 1 {
		delete(d.pending, line)
		d.snapPool = append(d.snapPool, q[:0])
	} else {
		d.pending[line] = q[1:]
	}
}

// Persist functionally promotes [addr, addr+size) from the live view to
// the durable shadow with no timing cost. It models tiny metadata
// updates (superblock words, process headers) that the kernel fences
// synchronously at negligible cost next to the data they describe; the
// checkpoint payload path never uses it.
func (d *Domain) Persist(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	lo, hi := addr, addr+size
	if lo < NVMBase {
		lo = NVMBase
	}
	if hi > PhysTop {
		hi = PhysTop
	}
	if lo >= hi {
		return
	}
	buf := make([]byte, hi-lo)
	d.live.Read(lo, buf)
	if j := d.journal; j != nil {
		j.recs = append(j.recs, journalRec{at: j.eng.Now(), kind: journalPersist, addr: lo, n: hi - lo})
		j.bytes = append(j.bytes, buf...)
	}
	d.durable.Write(lo, buf)
}

// PendingLines returns how many NVM lines have at least one admitted,
// not-yet-durable write in flight.
func (d *Domain) PendingLines() int { return len(d.pending) }

// CrashImage returns what NVM would hold after a power failure right
// now, without disturbing the running machine: a fresh Storage holding
// only the durable shadow (plus, in ADR mode, the newest admitted
// snapshot of each in-flight line). DRAM is absent entirely.
func (d *Domain) CrashImage() *Storage {
	img := d.durable.CloneRange(NVMBase, NVMSize)
	if d.adr {
		for _, line := range sortedLines(d.pending) {
			q := d.pending[line]
			snap := q[len(q)-1]
			img.Write(line, snap[:])
		}
	}
	return img
}

// sortedLines returns the in-flight line addresses of pending in
// ascending order so crash handling never depends on map iteration order.
func sortedLines(pending map[uint64][]lineSnap) []uint64 {
	lines := make([]uint64, 0, len(pending))
	for line := range pending { //prosperlint:ignore maprange keys sorted before use
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return lines
}

// clone returns a copy of the domain's durable shadow and in-flight
// writes, attached to no live view.
func (d *Domain) clone() *Domain {
	c := &Domain{
		durable: d.durable.CloneRange(NVMBase, NVMSize),
		adr:     d.adr,
		pending: make(map[uint64][]lineSnap, len(d.pending)),
	}
	for _, line := range sortedLines(d.pending) {
		c.pending[line] = slices.Clone(d.pending[line])
	}
	return c
}

// Journal is the input record of one Domain. The domain's state is a
// pure function of the writes admitted (with the line bytes each one
// snapshots), the writes completed and the ranges persisted, so the
// record, each input stamped with the engine cycle it arrived at, is
// enough to rebuild the domain's crash image at any recorded cycle
// without running the simulation again.
type Journal struct {
	eng   *sim.Engine // the recording run's clock
	start *Domain     // the domain's state when recording began
	recs  []journalRec
	lines []lineSnap // admitted payloads, one per journalAdmit record
	bytes []byte     // persisted payloads, concatenated in record order
}

type journalKind uint8

const (
	journalAdmit journalKind = iota
	journalComplete
	journalPersist
)

// journalRec is one domain input: an admitted or completed write of the
// line at addr, or n bytes persisted at addr.
type journalRec struct {
	at   sim.Time
	addr uint64
	n    uint64
	kind journalKind
}

// Record starts a journal of the domain's inputs from its state now,
// stamping each input with eng's clock, and returns it. Recording is a
// pure observer: the domain behaves exactly as when it is off.
func (d *Domain) Record(eng *sim.Engine) *Journal {
	j := &Journal{eng: eng, start: d.clone()}
	d.journal = j
	return j
}

// Images returns the domain's CrashImage at each of the ascending cycles:
// the image after every input recorded at or before that cycle. Because
// sim.Engine.RunUntil(c) fires exactly the events due at or before c,
// image i equals what RunUntil(cycles[i]) followed by CrashImage leaves
// on the recording run. Every cycle must be one the recording has
// reached.
func (j *Journal) Images(cycles []sim.Time) []*Storage {
	d := j.start.clone()
	imgs := make([]*Storage, len(cycles))
	next, li, off := 0, 0, uint64(0)
	for i, c := range cycles {
		if i > 0 && c < cycles[i-1] {
			panic(fmt.Sprintf("mem: journal images at descending cycles %d, %d", cycles[i-1], c))
		}
		if now := j.eng.Now(); c > now {
			panic(fmt.Sprintf("mem: journal image at cycle %d, past the recording's cycle %d", c, now))
		}
		for ; next < len(j.recs) && j.recs[next].at <= c; next++ {
			r := &j.recs[next]
			switch r.kind {
			case journalAdmit:
				d.admit(r.addr, &j.lines[li])
				li++
			case journalComplete:
				d.complete(r.addr)
			case journalPersist:
				d.durable.Write(r.addr, j.bytes[off:off+r.n])
				off += r.n
			}
		}
		imgs[i] = d.CrashImage()
	}
	return imgs
}
