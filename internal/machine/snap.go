package machine

import (
	"fmt"

	"prosper/internal/sim"
	"prosper/internal/snapbuf"
)

// SaveSnap encodes the full machine-level state: functional storage, the
// persistence domain, frame allocators, copy/fan engine slots, both
// memory devices, the cache hierarchy, and per-core TLBs and counters.
// claims accumulates the pending engine events the devices own.
func (m *Machine) SaveSnap(w *snapbuf.Writer, claims *sim.EventClaims) error {
	m.Counters.SaveSnap(w)
	m.Storage.SaveSnap(w)
	m.Domain.SaveSnap(w)
	m.DRAMFrames.SaveSnap(w)
	m.NVMFrames.SaveSnap(w)

	w.U64(uint64(len(m.copyAll)))
	for _, op := range m.copyAll {
		w.U64(op.srcLine)
		w.U64(op.dstLine)
		w.Int(op.lines)
		w.Int(op.window)
		w.Int(op.issued)
		w.Int(op.completed)
		w.Int(op.inFlight)
		w.U64(op.persistBase)
		w.U64(op.persistLen)
		if err := sim.SaveDone(w, op.done); err != nil {
			return fmt.Errorf("copy engine slot %d: %w", op.slot, err)
		}
	}
	w.U64(uint64(len(m.copyFree)))
	for _, op := range m.copyFree {
		w.Int(op.slot)
	}

	w.U64(uint64(len(m.fanAll)))
	for _, f := range m.fanAll {
		w.Int(f.remaining)
		if err := sim.SaveDone(w, f.done); err != nil {
			return fmt.Errorf("fan engine slot %d: %w", f.slot, err)
		}
	}
	w.U64(uint64(len(m.fanFree)))
	for _, f := range m.fanFree {
		w.Int(f.slot)
	}

	if err := m.Ctl.DRAM.SaveSnap(w, claims); err != nil {
		return err
	}
	if err := m.Ctl.NVM.SaveSnap(w, claims); err != nil {
		return err
	}
	if err := m.Hier.SaveSnap(w); err != nil {
		return err
	}
	for _, c := range m.Cores {
		if err := c.SaveSnap(w); err != nil {
			return err
		}
	}
	return nil
}

// ResumeTokens registers the keyed continuation prototypes of every
// copy/fan engine slot, materializing slots up to the saved counts
// first. Call before LoadSnap so parked tokens in device queues can
// re-bind.
func (m *Machine) ResumeTokens(reg map[uint64]sim.Done) {
	for _, op := range m.copyAll {
		reg[op.srcDoneTok.Key()] = op.srcDoneTok
		reg[op.dstDoneTok.Key()] = op.dstDoneTok
	}
	for _, f := range m.fanAll {
		reg[f.lineDoneTok.Key()] = f.lineDoneTok
	}
}

// ensureSlots materializes engine records so that slot indices present
// in a snapshot exist in this machine. Allocations are held until the
// target count is reached — the allocators reuse free-listed records and
// only grow past them — then released; LoadSnap overwrites the free
// lists with the snapshot's anyway.
func (m *Machine) ensureSlots(copies, fans int) {
	var heldCopies []*copyOp
	for len(m.copyAll) < copies {
		heldCopies = append(heldCopies, m.allocCopy())
	}
	for _, op := range heldCopies {
		m.freeCopy(op)
	}
	var heldFans []*fanOp
	for len(m.fanAll) < fans {
		heldFans = append(heldFans, m.allocFan())
	}
	for _, f := range heldFans {
		m.freeFan(f)
	}
}

// LoadSnap restores machine state saved by SaveSnap. reg must already
// contain every resume key the snapshot's parked tokens may reference —
// including this machine's own engine slots, which LoadSnap materializes
// and registers into reg as it discovers the saved slot counts.
func (m *Machine) LoadSnap(r *snapbuf.Reader, reg map[uint64]sim.Done) error {
	if err := m.Counters.LoadSnap(r); err != nil {
		return err
	}
	if err := m.Storage.LoadSnap(r); err != nil {
		return err
	}
	if err := m.Domain.LoadSnap(r); err != nil {
		return err
	}
	if err := m.DRAMFrames.LoadSnap(r); err != nil {
		return err
	}
	if err := m.NVMFrames.LoadSnap(r); err != nil {
		return err
	}

	ncopy := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	m.ensureSlots(ncopy, 0)
	m.ResumeTokens(reg)
	if ncopy != len(m.copyAll) {
		return fmt.Errorf("machine: %d copy slots in snapshot, %d live", ncopy, len(m.copyAll))
	}
	for _, op := range m.copyAll {
		op.srcLine = r.U64()
		op.dstLine = r.U64()
		op.lines = r.Int()
		op.window = r.Int()
		op.issued = r.Int()
		op.completed = r.Int()
		op.inFlight = r.Int()
		op.persistBase = r.U64()
		op.persistLen = r.U64()
		done, err := sim.LoadDone(r, reg)
		if err != nil {
			return fmt.Errorf("copy engine slot %d: %w", op.slot, err)
		}
		op.done = done
	}
	nfree := r.Count(8)
	m.copyFree = m.copyFree[:0]
	for i := 0; i < nfree; i++ {
		slot := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if slot < 0 || slot >= len(m.copyAll) {
			return fmt.Errorf("machine: free copy slot %d out of range", slot)
		}
		m.copyFree = append(m.copyFree, m.copyAll[slot])
	}

	nfan := r.Count(2)
	if r.Err() != nil {
		return r.Err()
	}
	m.ensureSlots(0, nfan)
	m.ResumeTokens(reg)
	if nfan != len(m.fanAll) {
		return fmt.Errorf("machine: %d fan slots in snapshot, %d live", nfan, len(m.fanAll))
	}
	for _, f := range m.fanAll {
		f.remaining = r.Int()
		done, err := sim.LoadDone(r, reg)
		if err != nil {
			return fmt.Errorf("fan engine slot %d: %w", f.slot, err)
		}
		f.done = done
	}
	nffree := r.Count(8)
	m.fanFree = m.fanFree[:0]
	for i := 0; i < nffree; i++ {
		slot := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if slot < 0 || slot >= len(m.fanAll) {
			return fmt.Errorf("machine: free fan slot %d out of range", slot)
		}
		m.fanFree = append(m.fanFree, m.fanAll[slot])
	}

	if err := m.Ctl.DRAM.LoadSnap(r, reg); err != nil {
		return err
	}
	if err := m.Ctl.NVM.LoadSnap(r, reg); err != nil {
		return err
	}
	if err := m.Hier.LoadSnap(r); err != nil {
		return err
	}
	for _, c := range m.Cores {
		if err := c.LoadSnap(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// ResumeFiring continues whichever device (at most one — the engine is
// single-threaded) a snapshot interrupted mid-completion-batch. Call
// last in the resume sequence, after all higher-level state is live.
func (m *Machine) ResumeFiring() {
	m.Ctl.DRAM.ResumeFiring()
	m.Ctl.NVM.ResumeFiring()
}

// SaveSnap encodes the core's TLB and counters. The core itself must be
// idle — snapshots happen at checkpoint commits, where every thread is
// paused at an operation boundary and the store buffer has drained.
func (c *Core) SaveSnap(w *snapbuf.Writer) error {
	if c.storeCredits != StoreBuffer || c.swHead != len(c.storeWaiters) {
		return fmt.Errorf("machine: core %d store buffer busy at snapshot point", c.ID)
	}
	c.TLB.SaveSnap(w)
	c.Counters.SaveSnap(w)
	return nil
}

// LoadSnap restores the core's TLB and counters.
func (c *Core) LoadSnap(r *snapbuf.Reader) error {
	if err := c.TLB.LoadSnap(r); err != nil {
		return err
	}
	return c.Counters.LoadSnap(r)
}
