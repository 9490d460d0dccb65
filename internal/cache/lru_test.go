package cache

import (
	"math/rand"
	"strings"
	"testing"

	"prosper/internal/mem"
	"prosper/internal/sim"
)

// stampLRU is the replacement state the packed per-set order replaced,
// kept as the reference: one stamp per line from a clock that ticks on
// every hit and fill, the victim being a set's first invalid way, else
// the way with the lowest stamp (the lowest such way on a tie).
type stampLRU struct {
	ways       int
	setMask    uint64
	lines      []uint64 // line address; bit 0 valid, bit 1 dirty
	lrus       []uint64
	clock      uint64
	writebacks int
	evictions  int // fills that replaced a valid line
}

const refValid, refDirty = 1, 2

func newStampLRU(sets, ways int) *stampLRU {
	return &stampLRU{
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   make([]uint64, sets*ways),
		lrus:    make([]uint64, sets*ways),
	}
}

func (r *stampLRU) set(line uint64) int { return int(line >> mem.LineShift & r.setMask) }

func (r *stampLRU) victim(s int) int {
	base := s * r.ways
	v := base
	for i := base; i < base+r.ways; i++ {
		if r.lines[i]&refValid == 0 {
			return i - base
		}
		if r.lrus[i] < r.lrus[v] {
			v = i
		}
	}
	return v - base
}

func (r *stampLRU) access(write bool, addr uint64) {
	line := mem.LineOf(addr)
	s := r.set(line)
	base := s * r.ways
	i := -1
	for w := range r.ways {
		if r.lines[base+w]&^refDirty == line|refValid {
			i = base + w
		}
	}
	if i < 0 {
		i = base + r.victim(s)
		if r.lines[i]&refValid != 0 {
			r.evictions++
			if r.lines[i]&refDirty != 0 {
				r.writebacks++
			}
		}
		r.lines[i] = line | refValid
	}
	r.clock++
	r.lrus[i] = r.clock
	if write {
		r.lines[i] |= refDirty
	}
}

func (r *stampLRU) flush() {
	for i, l := range r.lines {
		if l&(refValid|refDirty) == refValid|refDirty {
			r.writebacks++
		}
		r.lines[i] = l &^ (refValid | refDirty)
	}
}

// compare fails the test unless c holds exactly the reference's lines,
// flags and writebacks and would evict the same way from every set.
func (r *stampLRU) compare(t *testing.T, c *Cache, below *immediatePort, what string) {
	t.Helper()
	for i, l := range r.lines {
		tag := c.sets[i/r.ways].tags[i%r.ways]
		if addrOf(tag) != l&^(refValid|refDirty) || tag&tagValid != 0 != (l&refValid != 0) || tag&tagDirty != 0 != (l&refDirty != 0) {
			t.Fatalf("%s: line %d = %#x (flags %d), want %#x", what, i, addrOf(tag), tag&tagFlags, l)
		}
	}
	for s := range c.sets {
		if g, w := c.victimFor(s), r.victim(s); g != w {
			t.Fatalf("%s: set %d victim way %d, want %d", what, s, g, w)
		}
	}
	if below.writes != r.writebacks {
		t.Fatalf("%s: %d writebacks, want %d", what, below.writes, r.writebacks)
	}
}

// TestLRUMatchesStampReference drives the packed order and the stamp
// reference with the same random reads, writes and flushes, at 4, 8 and
// 16 ways, and compares them after every step.
func TestLRUMatchesStampReference(t *testing.T) {
	const sets = 8
	for _, ways := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(ways)))
		eng := sim.NewEngine()
		below := &immediatePort{eng: eng, latency: 100}
		cfg := Config{Name: "t", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 3, MSHRs: 4}
		c := New(eng, cfg, below)
		ref := newStampLRU(sets, ways)
		lines := uint64(sets * (ways + ways/2 + 2))
		for step := 0; step < 20000; step++ {
			op := "access"
			if rng.Intn(200) == 0 {
				op = "flush"
				c.Flush()
				eng.Run()
				ref.flush()
			} else {
				write := rng.Intn(3) == 0
				addr := rng.Uint64()%lines*mem.LineSize + rng.Uint64()%mem.LineSize
				c.Access(write, addr, sim.Done{})
				eng.Run()
				ref.access(write, addr)
			}
			ref.compare(t, c, below, op)
		}
		if ref.evictions == 0 {
			t.Fatalf("%d ways: no fill replaced a valid line", ways)
		}
	}
}

// TestPermutedFillsPickSameVictims fills two full 16-way sets in a
// shuffled order, then re-touches a shuffled half of the lines, so each
// set's recency order is unrelated to its way order. Every later fill
// must evict what the stamp scan would.
func TestPermutedFillsPickSameVictims(t *testing.T) {
	const sets, ways = 2, 16
	eng := sim.NewEngine()
	below := &immediatePort{eng: eng, latency: 100}
	cfg := Config{Name: "t", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 3, MSHRs: 4}
	c := New(eng, cfg, below)
	ref := newStampLRU(sets, ways)
	access := func(write bool, addr uint64, what string) {
		c.Access(write, addr, sim.Done{})
		eng.Run()
		ref.access(write, addr)
		ref.compare(t, c, below, what)
	}
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(sets * ways)
	for i, l := range order {
		access(i%3 == 0, uint64(l)*mem.LineSize, "fill")
	}
	for _, l := range order[:sets*ways/2] {
		access(false, uint64(l)*mem.LineSize, "touch")
	}
	for i := range 3 * sets * ways {
		access(i%2 == 0, uint64(sets*ways+i)*mem.LineSize, "evict")
	}
	if ref.evictions == 0 {
		t.Fatal("no fill replaced a valid line")
	}
}

func TestNewRejectsUnrunnableConfigs(t *testing.T) {
	good := Config{Name: "lvl", Size: 8 * 1024, Ways: 4, Latency: 3, MSHRs: 4}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero ways", func(c *Config) { c.Ways = 0 }, "0 ways"},
		{"seventeen ways", func(c *Config) { c.Ways, c.Size = 17, 17*64*mem.LineSize }, "17 ways"},
		{"zero MSHRs", func(c *Config) { c.MSHRs = 0 }, "0 MSHRs"},
		{"negative latency", func(c *Config) { c.Latency = -1 }, "negative latency"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.edit(&cfg)
			msg := panicMessage(func() { New(sim.NewEngine(), cfg, &immediatePort{}) })
			if !strings.Contains(msg, "lvl") || !strings.Contains(msg, tc.want) {
				t.Fatalf("New(%+v) panic = %q, want one naming the level and %q", cfg, msg, tc.want)
			}
		})
	}
}

// panicMessage runs f and returns what it panicked with, or "" if it
// returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}

// TestTagLimit checks the 32-bit tag word's limit: an access at
// addrLimit is refused by name, and the last line below it is held
// intact.
func TestTagLimit(t *testing.T) {
	eng := sim.NewEngine()
	c, below := testCache(eng, 4)
	last := addrLimit - mem.LineSize
	c.Access(true, last+8, sim.Done{})
	eng.Run()
	if !c.Contains(last) || c.Contains(addrLimit) {
		t.Fatalf("Contains(last line) = %v, Contains(addrLimit) = %v", c.Contains(last), c.Contains(addrLimit))
	}
	c.Flush()
	if below.writes != 1 {
		t.Fatalf("flush wrote back %d lines, want the last line's 1", below.writes)
	}

	if msg := panicMessage(func() { c.Access(false, addrLimit, sim.Done{}) }); !strings.Contains(msg, "0x1000000000") {
		t.Fatalf("Access(addrLimit) panic = %q, want one naming the address", msg)
	}
}

// TestUntouchedLevelAllocatesNoSets: a level that was never accessed
// holds no sets, and Contains on it finds nothing without allocating
// them. The first fill allocates the sets.
func TestUntouchedLevelAllocatesNoSets(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := testCache(eng, 4)
	if c.sets != nil {
		t.Fatal("New allocated the sets of an untouched level")
	}
	if c.Contains(0x1000) {
		t.Fatal("an untouched level contains a line")
	}
	if c.sets != nil {
		t.Fatal("Contains allocated the sets of an untouched level")
	}

	fresh, _ := testCache(eng, 4)
	fresh.Access(false, 0x1000, sim.Done{})
	eng.Run()
	if fresh.sets == nil || !fresh.Contains(0x1000) {
		t.Fatal("the first fill did not allocate the sets and install the line")
	}
}
