package main

import (
	"prosper/internal/kernel"
	"prosper/internal/sim"
)

// The benchmark's host is a shared VM whose speed drifts: the same
// simulation took 0.23 s and 0.40 s a few seconds apart on a 2-vCPU x86
// VM, with no steal time reported, and the slow spells last seconds to
// minutes. A wall-clock time is then mostly a reading of the neighbours'
// load. So every host time the end-to-end metrics report is measured in
// reference nanoseconds instead: the measured work is cut into segments
// of a few milliseconds, a fixed yardstick is timed between segments,
// and each segment's wall time is scaled by how fast the yardstick ran
// around it. On that VM the scaled time of one simulation varied 2.6–4.8%
// (interquartile range over its runs) where the wall time varied
// 17–20%.
//
// The yardstick is two small pieces of fixed work whose slowdowns best
// tracked the simulator's across the workloads, chosen among several
// candidates (integer arithmetic, a bytecode interpreter, pointer
// chases of 16 KiB to 4 MiB, a map): a dependent pointer chase through
// 64 KiB and lookups in a 4096-key map. Each runs an untimed pass first,
// so the cache lines the simulation evicted are back and only the host's
// speed is timed. It is the benchmark's own code, so no change to the
// simulator moves it.

const (
	chaseEntries = 1 << 14 // uint32s: 64 KiB, one random cycle
	chaseSteps   = 100_000
	mapKeys      = 1 << 12
	mapLookups   = 25_000

	// The yardstick's times at reference speed: the medians on the
	// 2-vCPU x86 VM above, in its fast spells. A reference nanosecond
	// is a wall nanosecond on that host when it is not slowed.
	refChaseNS = 288_000
	refMapNS   = 197_000

	// segmentNS is the wall time between yardstick readings. A reading
	// costs about 0.55 ms, so this keeps the overhead near 7%.
	segmentNS = 8_000_000

	// chunk is the simulated time advanced between checks of the
	// segment clock: about 80 µs of host time on paper-10ms and 1.6 ms
	// on stack-micro.
	chunk = sim.Microsecond
)

// yardstick holds the fixed work; build it once per process.
type yardstick struct {
	chase []uint32
	keys  map[uint32]uint32
	sink  uint32
}

func newYardstick() *yardstick {
	y := &yardstick{chase: make([]uint32, chaseEntries), keys: make(map[uint32]uint32, mapKeys)}
	// A single random cycle (Sattolo's algorithm), so the chase visits
	// every entry in an order the prefetcher cannot follow.
	perm := make([]uint32, chaseEntries)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(perm) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		y.chase[perm[i]] = perm[(i+1)%len(perm)]
	}
	for i := uint32(0); i < mapKeys; i++ {
		y.keys[i] = i * 2654435761
	}
	return y
}

func (y *yardstick) walk(steps int) {
	j := y.sink % chaseEntries
	for i := 0; i < steps; i++ {
		j = y.chase[j]
	}
	y.sink = j
}

func (y *yardstick) lookup(n int) {
	x, s := y.sink, uint32(0)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		s += y.keys[(x>>8)%mapKeys]
	}
	y.sink = s
}

// reading is one timing of the yardstick, in wall nanoseconds.
type reading struct{ chase, keys float64 }

func (y *yardstick) read() reading {
	var r reading
	y.walk(chaseEntries)
	t := now()
	y.walk(chaseSteps)
	r.chase = float64(now() - t)
	y.lookup(mapKeys)
	t = now()
	y.lookup(mapLookups)
	r.keys = float64(now() - t)
	return r
}

// scale converts wall time to reference time for a segment read between
// a and b: the mean of the two yardsticks' speeds, each the mean of its
// readings before and after.
func scale(a, b reading) float64 {
	return (refChaseNS/((a.chase+b.chase)/2) + refMapNS/((a.keys+b.keys)/2)) / 2
}

// meter measures host time in segments, each scaled by the yardstick
// read around it. Yardstick time is excluded from both totals.
type meter struct {
	y     *yardstick
	last  reading
	start int64

	wallNS float64 // wall nanoseconds of closed segments
	refNS  float64 // the same in reference nanoseconds
}

func newMeter(y *yardstick) *meter { return &meter{y: y} }

// begin reads the yardstick and opens a segment.
func (m *meter) begin() {
	m.last = m.y.read()
	m.start = now()
}

// lap closes the open segment, reads the yardstick, and opens the next.
func (m *meter) lap() {
	d := float64(now() - m.start)
	r := m.y.read()
	m.wallNS += d
	m.refNS += d * scale(m.last, r)
	m.last = r
	m.start = now()
}

// due reports whether the open segment has run its length.
func (m *meter) due() bool { return now()-m.start >= segmentNS }

// totals returns the wall and reference nanoseconds measured so far.
func (m *meter) totals() (wall, ref float64) { return m.wallNS, m.refNS }

// runFor is k.RunFor(d) cut into chunks, so the meter can lap between
// them. Running the engine to a deadline in steps fires the same events
// in the same order as one call (Engine.RunUntil only advances the clock
// past the last event), which TestHarnessMatchesRunner pins. It ends
// with a lap, so the segment closes at the phase boundary.
func (m *meter) runFor(k *kernel.Kernel, d sim.Time) {
	end := k.Eng.Now() + d
	for {
		k.Eng.RunUntil(min(k.Eng.Now()+chunk, end))
		if k.Eng.Now() >= end {
			break
		}
		if m.due() {
			m.lap()
		}
	}
	m.lap()
}
