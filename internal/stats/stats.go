// Package stats provides the counters, histograms, and table rendering
// used by every simulated component and by the experiment harnesses.
package stats

// Counters is a named set of monotonically increasing counters. The zero
// value is not ready; use NewCounters.
//
// Each counter lives in its own heap slot, so a Counter handle obtained
// with Handle stays valid as the set grows. Hot paths should hold a
// handle (Handle, or Lazy where registration order must follow first
// use) instead of calling Add/Inc with a name: the handle variants are a
// single pointer dereference with no map lookup and no string
// concatenation.
type Counters struct {
	values map[string]*uint64
	order  []string
}

// Counter is a cheap handle to one counter slot inside a Counters set.
// The zero value is a valid no-op sink, which lets components keep
// unconditional Inc/Add calls even when metrics are disabled.
type Counter struct {
	v *uint64
}

// Inc increments the counter by one. No-op on the zero handle.
func (h Counter) Inc() {
	if h.v != nil {
		*h.v++
	}
}

// Add increments the counter by delta. No-op on the zero handle.
func (h Counter) Add(delta uint64) {
	if h.v != nil {
		*h.v += delta
	}
}

// Get returns the current value (zero for the zero handle).
func (h Counter) Get() uint64 {
	if h.v == nil {
		return 0
	}
	return *h.v
}

// LazyCounter is a handle that registers its counter on the first Inc or
// Add instead of at construction, so a never-touched counter stays
// absent from every stats dump, exactly as with the string-keyed Inc at
// the same call site, minus the map lookup after the first use. Keep it in the
// owning struct and call it through a pointer: the resolved slot is
// cached in the handle.
type LazyCounter struct {
	set  *Counters
	name string
	v    *uint64
}

// Inc increments the counter by one, registering it on first use.
func (h *LazyCounter) Inc() { h.Add(1) }

// Add increments the counter by delta, registering it on first use.
func (h *LazyCounter) Add(delta uint64) {
	if h.v == nil {
		h.register()
	}
	*h.v += delta
}

// register resolves the handle's slot. It stays out of line so the map
// insert it may do is not inlined into every hot caller of Add.
//
//go:noinline
func (h *LazyCounter) register() { h.v = h.set.slot(h.name) }

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]*uint64)}
}

// slot returns the value cell for name, creating it on first use.
func (c *Counters) slot(name string) *uint64 {
	p, ok := c.values[name]
	if !ok {
		p = new(uint64)
		c.values[name] = p
		c.order = append(c.order, name)
	}
	return p
}

// Handle registers name (if new) and returns a stable handle to its
// slot. Handles remain valid for the lifetime of the set.
func (c *Counters) Handle(name string) Counter {
	if c == nil {
		return Counter{}
	}
	return Counter{v: c.slot(name)}
}

// Lazy returns a handle to name that registers it on its first Inc or
// Add, keeping the set's registration order identical to string-keyed
// Inc calls at the same site.
func (c *Counters) Lazy(name string) LazyCounter {
	return LazyCounter{set: c, name: name}
}

// Add increments the named counter by delta, creating it on first use.
func (c *Counters) Add(name string, delta uint64) { *c.slot(name) += delta }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of the named counter (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if p, ok := c.values[name]; ok {
		return *p
	}
	return 0
}

// Names returns counter names in first-use order.
func (c *Counters) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Snapshot returns a copy of the current values.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.values))
	for k, p := range c.values {
		out[k] = *p
	}
	return out
}
