package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(CompOther, 10, func() { order = append(order, 2) })
	e.Schedule(CompOther, 5, func() { order = append(order, 1) })
	e.Schedule(CompOther, 20, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(CompOther, 7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("event %d fired out of order (got %d)", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 10 {
			e.Schedule(CompOther, 1, rec)
		}
	}
	e.Schedule(CompOther, 0, rec)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 9 {
		t.Fatalf("clock = %d, want 9", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(CompOther, 5, func() { fired++ })
	e.Schedule(CompOther, 15, func() { fired++ })
	e.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(CompOther, -1, func() {})
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(CompOther, 100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for scheduling in the past")
		}
	}()
	e.At(CompOther, 50, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.NewTicker(CompOther, 10, func() {
		ticks++
	})
	e.RunUntil(55)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	tk.Stop()
	e.RunUntil(200)
	if ticks != 5 {
		t.Fatalf("ticks after stop = %d, want 5", ticks)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tk *Ticker
	tk = e.NewTicker(CompOther, 3, func() {
		ticks++
		if ticks == 4 {
			tk.Stop()
		}
	})
	e.Run()
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
}

// Property: events always fire in nondecreasing time order and FIFO among
// equal timestamps, regardless of the insertion order of delays.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 256 {
			delays = delays[:256]
		}
		e := NewEngine()
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			when := Time(d)
			i := i
			e.At(CompOther, when, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded sources diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(63, 20)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 62 || mean > 64 {
		t.Fatalf("normal mean = %f, want ~63", mean)
	}
	if variance < 350 || variance > 450 {
		t.Fatalf("normal variance = %f, want ~400", variance)
	}
}

func TestRandPoissonMean(t *testing.T) {
	r := NewRand(13)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(63)
	}
	mean := float64(sum) / n
	if mean < 62 || mean > 64 {
		t.Fatalf("poisson mean = %f, want ~63", mean)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
	}
}

// TestHeapMatchesReferenceSort drives the event queue with an
// adversarial mix of interleaved At/Schedule calls — including events
// scheduled from inside running events, with uint16 delays on both sides
// of the wheel's 256-cycle horizon — and checks the full dispatch order
// against a stable sort by (when, insertion order). This is the exact
// contract the simulator's determinism rests on: seq numbers are unique,
// so one correct order exists and the queue must produce it.
func TestHeapMatchesReferenceSort(t *testing.T) {
	f := func(delays []uint16, nested []uint8) bool {
		e := NewEngine()
		type rec struct {
			when  Time
			order int
		}
		var want []rec
		var got []int
		order := 0
		add := func(when Time) {
			id := order
			order++
			want = append(want, rec{when, id})
			e.At(CompOther, when, func() { got = append(got, id) })
		}
		for i, d := range delays {
			if i >= 128 {
				break
			}
			add(Time(d))
			// Occasionally schedule a follow-up from inside an event, so
			// pushes interleave with pops mid-run. The follow-up's id is
			// assigned when it is actually scheduled (inside the wrapper),
			// matching the engine's seq assignment: an event scheduled
			// mid-run ties AFTER every pre-run event at the same timestamp.
			if i < len(nested) && nested[i]%3 == 0 {
				extra := Time(d) + Time(nested[i])
				e.At(CompOther, Time(d), func() {
					id := order
					order++
					want = append(want, rec{extra, id})
					e.At(CompOther, extra, func() { got = append(got, id) })
				})
			}
		}
		e.Run()
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].order < want[j].order
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i].order {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleSteadyStateAllocs pins the scheduler's hot path at zero
// heap allocations once the event array has grown to working size:
// neither Schedule/ScheduleDone nor dispatch may box events.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tok := Thunk(CompOther, fn)
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(CompOther, Time(i%7), fn)
			e.ScheduleDone(Time(i%5), tok)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduler allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestTickerSteadyStateAllocs pins the recurring-tick path: after the
// first tick the Ticker must reuse its stored callback instead of
// allocating a fresh closure per period.
func TestTickerSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.NewTicker(CompOther, 10, func() { ticks++ })
	e.RunUntil(100) // warm: first ticks grow the queue
	before := ticks
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 50)
	})
	if allocs != 0 {
		t.Fatalf("ticker allocates %.1f objects per 5 ticks, want 0", allocs)
	}
	if ticks <= before {
		t.Fatal("ticker stopped firing")
	}
}

// sortKeys sorts (when, seq) identities into dispatch order.
func sortKeys(keys []PendingKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].When != keys[j].When {
			return keys[i].When < keys[j].When
		}
		return keys[i].Seq < keys[j].Seq
	})
}

// TestFarCollisionsMatchReferenceSort schedules events at colliding
// timestamps in the first few wheel buckets and just past the wheel,
// from a non-zero start, and schedules more from inside events at the
// cycles the far events later migrate into. Buckets only ever append,
// so dispatch must still follow (when, seq) exactly: a migrated far
// event precedes every event scheduled later for the same cycle.
func TestFarCollisionsMatchReferenceSort(t *testing.T) {
	f := func(raw []uint16, start uint32) bool {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		e := NewEngine()
		e.RunUntil(Time(start))
		now := e.Now()
		var want, got []PendingKey
		var at func(when Time, nested Time)
		at = func(when Time, nested Time) {
			seq := e.ScheduleSeq()
			want = append(want, PendingKey{when, seq})
			e.At(CompOther, when, func() {
				got = append(got, PendingKey{e.Now(), seq})
				if nested > 0 {
					at(e.Now()+nested, 0)
				}
			})
		}
		whenOf := func(r uint16) Time {
			switch r % 4 {
			case 0: // the first few buckets
				return now + Time(r>>2)%3
			case 1: // just past the wheel, colliding
				return now + wheelSize + Time(r>>2)%3
			case 2:
				return now + Time(r>>2)%wheelSize
			default:
				return now + Time(r)
			}
		}
		for i, r := range raw {
			// Every other event schedules a follow-up 255-257 cycles
			// on, across the wheel's edge, where far events migrate.
			at(whenOf(r), Time(i%2)*(wheelSize-1+Time(r>>8)%3))
		}
		pending := e.PendingKeys()
		e.Run()
		sortKeys(want)
		return slices.Equal(got, want) && len(pending) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilJumpMatchesReferenceSort interleaves scheduling with
// RunUntil deadlines that jump the clock up to 512 cycles, so far-heap
// events are pulled into the wheel by the jump itself rather than by a
// dispatch. Every event must still fire in (when, seq) order.
func TestRunUntilJumpMatchesReferenceSort(t *testing.T) {
	f := func(ops []struct{ Delay, Jump uint16 }) bool {
		e := NewEngine()
		var want, got []PendingKey
		for _, op := range ops {
			when, seq := e.Now()+Time(op.Delay%1024), e.ScheduleSeq()
			want = append(want, PendingKey{when, seq})
			e.At(CompOther, when, func() { got = append(got, PendingKey{e.Now(), seq}) })
			e.RunUntil(e.Now() + Time(op.Jump%512))
		}
		e.Run()
		sortKeys(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFarTickerSteadyStateAllocs pins the far heap's recurring path: a
// ticker whose period exceeds the wheel goes through the heap and then
// migrates into the wheel every period, and must allocate nothing.
func TestFarTickerSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.NewTicker(CompOther, 1000, func() { ticks++ })
	e.RunUntil(10_000) // warm: first ticks grow the queue
	before := ticks
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 5000)
	})
	if allocs != 0 {
		t.Fatalf("far ticker allocates %.1f objects per 5 ticks, want 0", allocs)
	}
	if ticks <= before {
		t.Fatal("ticker stopped firing")
	}
}
