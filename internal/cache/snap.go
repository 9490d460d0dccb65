package cache

import (
	"fmt"

	"prosper/internal/mem"
	"prosper/internal/snapbuf"
)

// SaveSnap encodes the level's tag arrays and statistics. Each line's
// record is (tag, valid, dirty, lru stamp); the level keeps no per-line
// stamps, so the way at recency k of its set gets stamp ways - k, which
// orders exactly as the set's recency does.
// Snapshots are taken at checkpoint-commit quiescent points where no
// miss is in flight; a level with live MSHRs or stalled accesses rejects
// the snapshot point rather than serializing continuations.
func (c *Cache) SaveSnap(w *snapbuf.Writer) error {
	if len(c.mshrs) != 0 || len(c.blocked) != 0 {
		return fmt.Errorf("cache: %s has %d in-flight misses and %d blocked accesses at snapshot point",
			c.cfg.Name, len(c.mshrs), len(c.blocked))
	}
	if c.sets == nil {
		c.allocSets()
	}
	w.String(c.cfg.Name)
	w.U64(c.setMask + 1)
	w.U64(uint64(c.cfg.Ways))
	ways := c.cfg.Ways
	var stamps [maxWays]uint64
	for s := range c.sets {
		st := &c.sets[s]
		for k := range ways {
			stamps[st.order>>(4*k)&0xF] = uint64(ways - k)
		}
		for way, tag := range st.tags[:ways] {
			w.U64(addrOf(tag))
			w.Bool(tag&tagValid != 0)
			w.Bool(tag&tagDirty != 0)
			w.U64(stamps[way])
		}
	}
	c.Counters.SaveSnap(w)
	c.Histograms.SaveSnap(w)
	return nil
}

// LoadSnap restores a level of identical geometry. Each set's recency
// order is rebuilt from its lines' stamps, highest first; among equal
// stamps the lower way counts as less recent, since a scan for the
// minimum stamp would pick it first.
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
	n := c.cfg.Ways
	var stamps [maxWays]uint64
	c.sets = make([]set, c.setMask+1)
	for s := range c.sets {
		st := set{}
		for way := range n {
			i := s*n + way
			addr := r.U64()
			if addr&(mem.LineSize-1) != 0 {
				return fmt.Errorf("cache: %s line %d holds unaligned tag %#x", c.cfg.Name, i, addr)
			}
			if addr >= addrLimit {
				return fmt.Errorf("cache: %s line %d holds tag %#x beyond the tag limit %#x", c.cfg.Name, i, addr, addrLimit)
			}
			tag := tagOf(addr)
			if r.Bool() {
				tag |= tagValid
				st.valid |= 1 << way
			}
			if r.Bool() {
				tag |= tagDirty
			}
			st.tags[way] = tag
			stamps[way] = r.U64()
		}
		// Insertion sort, most recent first: each way goes in front of
		// every lower way whose stamp is not higher than its own.
		var order [maxWays]uint8
		for way := range n {
			k := way
			for k > 0 && stamps[order[k-1]] <= stamps[way] {
				order[k] = order[k-1]
				k--
			}
			order[k] = uint8(way)
		}
		for k := range n {
			st.order |= uint64(order[k]) << (4 * k)
		}
		c.sets[s] = st
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
