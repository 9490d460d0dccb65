package cache

import (
	"fmt"

	"prosper/internal/mem"
	"prosper/internal/snapbuf"
)

// SaveSnap encodes the level's tag arrays, LRU clock, and statistics.
// Snapshots are taken at checkpoint-commit quiescent points where no
// miss is in flight; a level with live MSHRs or stalled accesses rejects
// the snapshot point rather than serializing continuations.
func (c *Cache) SaveSnap(w *snapbuf.Writer) error {
	if len(c.mshrs) != 0 || len(c.blocked) != 0 {
		return fmt.Errorf("cache: %s has %d in-flight misses and %d blocked accesses at snapshot point",
			c.cfg.Name, len(c.mshrs), len(c.blocked))
	}
	w.String(c.cfg.Name)
	w.U64(c.setMask + 1)
	w.U64(uint64(c.cfg.Ways))
	w.U64(c.lruClock)
	for i, tag := range c.tags {
		w.U64(tag &^ tagFlags)
		w.Bool(tag&tagValid != 0)
		w.Bool(tag&tagDirty != 0)
		w.U64(c.lrus[i])
	}
	c.Counters.SaveSnap(w)
	c.Histograms.SaveSnap(w)
	return nil
}

// LoadSnap restores a level of identical geometry.
func (c *Cache) LoadSnap(r *snapbuf.Reader) error {
	name := r.String()
	sets := r.U64()
	ways := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if name != c.cfg.Name || sets != c.setMask+1 || ways != uint64(c.cfg.Ways) {
		return fmt.Errorf("cache: geometry mismatch: snapshot %s %dx%d, machine %s %dx%d",
			name, sets, ways, c.cfg.Name, c.setMask+1, c.cfg.Ways)
	}
	c.lruClock = r.U64()
	for i := range c.tags {
		tag := r.U64()
		if tag&(mem.LineSize-1) != 0 {
			return fmt.Errorf("cache: %s line %d holds unaligned tag %#x", c.cfg.Name, i, tag)
		}
		if r.Bool() {
			tag |= tagValid
		}
		if r.Bool() {
			tag |= tagDirty
		}
		c.tags[i] = tag
		c.lrus[i] = r.U64()
	}
	if err := c.Counters.LoadSnap(r); err != nil {
		return err
	}
	return c.Histograms.LoadSnap(r)
}

// SaveSnap encodes every level of the hierarchy, L1s then L2s then L3.
func (h *Hierarchy) SaveSnap(w *snapbuf.Writer) error {
	for _, c := range h.L1D {
		if err := c.SaveSnap(w); err != nil {
			return err
		}
	}
	for _, c := range h.L2 {
		if err := c.SaveSnap(w); err != nil {
			return err
		}
	}
	return h.L3.SaveSnap(w)
}

// LoadSnap restores every level of an identically shaped hierarchy.
func (h *Hierarchy) LoadSnap(r *snapbuf.Reader) error {
	for _, c := range h.L1D {
		if err := c.LoadSnap(r); err != nil {
			return err
		}
	}
	for _, c := range h.L2 {
		if err := c.LoadSnap(r); err != nil {
			return err
		}
	}
	return h.L3.LoadSnap(r)
}
