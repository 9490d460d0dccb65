package vm

import (
	"fmt"

	"prosper/internal/snapbuf"
)

// This file implements snapshot save/load for the vm layer. The page
// table is serialized structurally (preorder, with each node's synthetic
// physical frame recorded explicitly) so a load rebuilds the exact node
// graph without drawing fresh frames from the allocator — allocator
// state is restored separately and already accounts for these frames.

// SaveSnap encodes the table: mapped count plus the node graph.
func (pt *PageTable) SaveSnap(w *snapbuf.Writer) {
	w.Int(pt.mapped)
	saveNode(w, pt.root, 0)
}

func saveNode(w *snapbuf.Writer, n *node, level int) {
	w.U64(n.physBase)
	if level == levels-1 {
		cnt := 0
		for i := range n.ptes {
			if n.ptes[i] != (PTE{}) {
				cnt++
			}
		}
		w.U64(uint64(cnt))
		for i := range n.ptes {
			if p := n.ptes[i]; p != (PTE{}) {
				w.U32(uint32(i))
				w.U64(p.Frame)
				w.U64(p.Flags)
			}
		}
		return
	}
	var bits [entriesPerLv / 64]uint64
	for i, c := range n.children {
		if c != nil {
			bits[i/64] |= 1 << (i % 64)
		}
	}
	for _, word := range bits {
		w.U64(word)
	}
	for _, c := range n.children {
		if c != nil {
			saveNode(w, c, level+1)
		}
	}
}

// LoadSnap replaces the table's node graph with a saved one. The frame
// source and NodePage hook are not consulted: node frames come from the
// snapshot.
func (pt *PageTable) LoadSnap(r *snapbuf.Reader) error {
	mapped := r.Int()
	root, err := loadNode(r, 0)
	if err != nil {
		return err
	}
	pt.root = root
	pt.mapped = mapped
	return r.Err()
}

func loadNode(r *snapbuf.Reader, level int) (*node, error) {
	if r.Err() != nil {
		return nil, r.Err()
	}
	n := &node{physBase: r.U64()}
	if level == levels-1 {
		n.ptes = make([]PTE, entriesPerLv)
		cnt := r.Count(20)
		for j := 0; j < cnt; j++ {
			idx := int(r.U32())
			frame := r.U64()
			flags := r.U64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if idx >= entriesPerLv {
				return nil, fmt.Errorf("vm: PTE index %d out of range", idx)
			}
			n.ptes[idx] = PTE{Frame: frame, Flags: flags}
		}
		return n, r.Err()
	}
	var bits [entriesPerLv / 64]uint64
	for i := range bits {
		bits[i] = r.U64()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := 0; i < entriesPerLv; i++ {
		if bits[i/64]&(1<<(i%64)) != 0 {
			c, err := loadNode(r, level+1)
			if err != nil {
				return nil, err
			}
			n.children[i] = c
		}
	}
	return n, nil
}

// SaveSnap encodes the space's mutable state. VMA bounds are recorded
// (stack areas grow downward at runtime); the VMA list itself is
// reconstructed by booting the same process configuration, so only the
// bounds and fault counts ride in the snapshot, followed by the table.
func (as *AddressSpace) SaveSnap(w *snapbuf.Writer) {
	w.U64(uint64(len(as.vmas)))
	for _, v := range as.vmas {
		w.U64(v.Lo)
		w.U64(v.Hi)
	}
	w.Int(as.demandFaults)
	w.Int(as.writeFaults)
	as.PT.SaveSnap(w)
}

// LoadSnap restores VMA bounds and the page table into a space that was
// booted with the identical layout.
func (as *AddressSpace) LoadSnap(r *snapbuf.Reader) error {
	n := r.Count(16)
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(as.vmas) {
		return fmt.Errorf("vm: VMA count mismatch: snapshot %d, machine %d", n, len(as.vmas))
	}
	for _, v := range as.vmas {
		lo := r.U64()
		hi := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if hi != v.Hi {
			return fmt.Errorf("vm: VMA mismatch: snapshot [%#x,%#x) vs machine [%#x,%#x)", lo, hi, v.Lo, v.Hi)
		}
		v.Lo = lo
	}
	as.demandFaults = r.Int()
	as.writeFaults = r.Int()
	return as.PT.LoadSnap(r)
}

// SaveSnap encodes the TLB's entries, its LRU list head to tail, and
// its statistics.
func (t *TLB) SaveSnap(w *snapbuf.Writer) {
	w.U64(uint64(len(t.entries)))
	for i := range t.entries {
		e := &t.entries[i]
		w.U64(e.VPN)
		w.U64(e.Frame)
		w.Bool(e.Write)
		w.Bool(e.Dirty)
		w.Bool(e.valid)
	}
	for s := t.head; s >= 0; s = t.next[s] {
		w.U32(uint32(s))
	}
	t.Counters.SaveSnap(w)
	t.Histograms.SaveSnap(w)
}

// LoadSnap restores a TLB of identical geometry. The LRU list must name
// every valid slot exactly once and no invalid one.
func (t *TLB) LoadSnap(r *snapbuf.Reader) error {
	n := r.Count(19)
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(t.entries) {
		return fmt.Errorf("vm: TLB size mismatch: snapshot %d, machine %d", n, len(t.entries))
	}
	valid := 0
	for i := range t.entries {
		e := &t.entries[i]
		e.VPN = r.U64()
		e.Frame = r.U64()
		e.Write = r.Bool()
		e.Dirty = r.Bool()
		e.valid = r.Bool()
		if e.valid {
			valid++
		}
	}
	t.rebuild()
	for ; valid > 0; valid-- {
		s := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		// rebuild unlinked every slot, so a linked one is the head or
		// has a predecessor.
		if s >= n || !t.entries[s].valid || int32(s) == t.head || t.prev[s] >= 0 {
			return fmt.Errorf("vm: TLB LRU list names slot %d twice, or an invalid one", s)
		}
		t.pushMRU(s)
	}
	if err := t.Counters.LoadSnap(r); err != nil {
		return err
	}
	return t.Histograms.LoadSnap(r)
}
