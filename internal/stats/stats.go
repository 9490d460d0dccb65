// Package stats provides the counters, distributions, and table rendering
// used by every simulated component and by the experiment harnesses.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters is a named set of monotonically increasing counters. The zero
// value is not ready; use NewCounters.
//
// Each counter lives in its own heap slot, so a Counter handle obtained
// with Handle stays valid as the set grows. Hot paths should hold a
// handle instead of calling Add/Inc with a composed name: the handle
// variants are a single pointer dereference with no map lookup and no
// string concatenation.
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

// Set overwrites the named counter.
func (c *Counters) Set(name string, v uint64) { *c.slot(name) = v }

// Names returns counter names in first-use order.
func (c *Counters) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Reset zeroes all counters but keeps their registration order.
func (c *Counters) Reset() {
	for _, p := range c.values {
		*p = 0
	}
}

// Snapshot returns a copy of the current values.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.values))
	for k, p := range c.values {
		out[k] = *p
	}
	return out
}

// String renders the counters one per line in registration order.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.order {
		fmt.Fprintf(&b, "%-40s %d\n", name, *c.values[name])
	}
	return b.String()
}

// Distribution accumulates scalar samples and reports summary statistics.
type Distribution struct {
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (d *Distribution) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the number of samples.
func (d *Distribution) N() int { return len(d.samples) }

// Sum returns the sum of all samples.
func (d *Distribution) Sum() float64 {
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, or zero for an empty distribution.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.samples))
}

// Stddev returns the population standard deviation.
func (d *Distribution) Stddev() float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	m := d.Mean()
	ss := 0.0
	for _, v := range d.samples {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n))
}

// Max returns the largest sample, or zero for an empty distribution.
func (d *Distribution) Max() float64 {
	out := 0.0
	for i, v := range d.samples {
		if i == 0 || v > out {
			out = v
		}
	}
	return out
}

// Min returns the smallest sample, or zero for an empty distribution.
func (d *Distribution) Min() float64 {
	out := 0.0
	for i, v := range d.samples {
		if i == 0 || v < out {
			out = v
		}
	}
	return out
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank on the sorted samples.
func (d *Distribution) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(d.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return d.samples[rank]
}

// GeoMean computes the geometric mean of positive values; non-positive
// inputs are skipped.
func GeoMean(values []float64) float64 {
	logSum := 0.0
	n := 0
	for _, v := range values {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
