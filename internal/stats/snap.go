package stats

import (
	"fmt"

	"prosper/internal/snapbuf"
)

// SaveSnap encodes the counter set — names and values in registration
// order — for a simulator snapshot. Registration order is part of the
// encoding so that a resumed run saves the same bytes again.
func (c *Counters) SaveSnap(w *snapbuf.Writer) {
	w.U64(uint64(len(c.order)))
	for _, name := range c.order {
		w.String(name)
		w.U64(*c.values[name])
	}
}

// LoadSnap replays a saved counter set into c. Names already registered
// (by the freshly booted components) keep their slots; names first
// touched at runtime in the saved run are appended in saved order. Both
// runs register construction-time names in the same code order, so the
// final registration order matches the saved one exactly.
func (c *Counters) LoadSnap(r *snapbuf.Reader) error {
	n := r.Count(16)
	for i := 0; i < n; i++ {
		name := r.String()
		v := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		*c.slot(name) = v
	}
	return r.Err()
}

// SaveSnap encodes one histogram's full state.
func (h *Histogram) SaveSnap(w *snapbuf.Writer) {
	for _, b := range h.buckets {
		w.U64(b)
	}
	w.U64(h.count)
	w.U64(h.sum)
	w.U64(h.min)
	w.U64(h.max)
}

// LoadSnap overwrites h with a saved histogram state.
func (h *Histogram) LoadSnap(r *snapbuf.Reader) error {
	for i := range h.buckets {
		h.buckets[i] = r.U64()
	}
	h.count = r.U64()
	h.sum = r.U64()
	h.min = r.U64()
	h.max = r.U64()
	return r.Err()
}

// SaveSnap encodes the histogram set in registration order.
func (hs *Histograms) SaveSnap(w *snapbuf.Writer) {
	w.U64(uint64(len(hs.order)))
	for _, name := range hs.order {
		w.String(name)
		hs.byName[name].SaveSnap(w)
	}
}

// LoadSnap replays a saved histogram set into hs, creating histograms
// first observed at runtime in the saved run in saved order.
func (hs *Histograms) LoadSnap(r *snapbuf.Reader) error {
	n := r.Count(16)
	for i := 0; i < n; i++ {
		name := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		h := hs.byName[name]
		if h == nil {
			h = hs.New(name)
		}
		if err := h.LoadSnap(r); err != nil {
			return fmt.Errorf("histogram %q: %w", name, err)
		}
	}
	return r.Err()
}
