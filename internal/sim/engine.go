// Package sim provides the deterministic discrete-event simulation engine
// that drives every timing component in the repository: cores, caches,
// memory devices, the Prosper dirty tracker, kernel timers, and background
// persistence threads.
//
// The engine is single-threaded and fully deterministic: events scheduled
// for the same cycle fire in the order they were scheduled (FIFO), and all
// randomness in the simulator flows from explicitly seeded sources
// (see Rand). Re-running a configuration always reproduces the same cycle
// counts and statistics.
//
// The event queue is a timing wheel of 256 one-cycle FIFO buckets for
// events due within 256 cycles of now, backed by a flat 4-ary min-heap
// for the rest. Nearly all events are near: in a store-bound run 99.6%
// land 1-16 cycles ahead (the 1-cycle kernel step, the 3-cycle L1 hit,
// the 12-cycle L2), in a miss-bound run 99.7% within 256 cycles, and the
// heap keeps only checkpoint ticks and long NVM waits. The next bucket is
// found through an occupancy bitmap with bits.TrailingZeros64. Bucket
// events live in one slab linked through slab indices; freed slots form
// a free list, so steady-state scheduling allocates nothing. Scheduling
// writes an event's fields straight into its slot. Copying in a whole
// event value instead stalled the host on store-to-load forwarding: the
// caller spilled the value with 8-byte stores and the copy reloaded it
// 16 bytes at a time.
//
// Dispatch order is the strict total order (when, seq), exactly as a
// single heap would pop it, because:
//   - a bucket holds a single cycle, and Schedule/At append in seq order;
//   - every clock advance moves newly in-window far events into their
//     bucket before any event at the new cycle can push a same-cycle one.
//
// So the queue's shape cannot change a single simulated cycle.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Time is a simulation timestamp in CPU cycles. The simulated machine runs
// at Frequency cycles per second, so wall-clock intervals convert via
// Millisecond and friends.
type Time = int64

// Frequency is the simulated core clock in cycles per second (3 GHz,
// matching Table II of the paper).
const Frequency = 3_000_000_000

// Convenient durations expressed in cycles at Frequency.
const (
	Nanosecond  Time = 3 // 3 cycles per ns at 3 GHz
	Microsecond Time = 3_000
	Millisecond Time = 3_000_000
	Second      Time = Frequency
)

// event is a scheduled callback. seq breaks ties among events with equal
// timestamps so ordering is deterministic FIFO. An event carries either a
// plain callback (fn) or a prebound single-argument callback (afn+arg);
// the latter lets hot paths schedule completions without materializing a
// fresh closure per event. comp tags the owning simulated component for
// host profiling; it never affects ordering.
type event struct {
	when Time
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
	comp Component
	next int32 // slab index of the next event in its wheel bucket (0 = none)
}

// wheelSize is the timing wheel's span in cycles, one bucket per cycle,
// sized by the measured delay distribution in the package comment.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// less orders events by (when, seq). seq is unique, so this is a strict
// total order: heap pop order is independent of heap shape.
func (ev event) less(other event) bool {
	if ev.when != other.when {
		return ev.when < other.when
	}
	return ev.seq < other.seq
}

// Done is a heap-free completion token: the continuation a component hands
// down the memory hierarchy instead of a freshly allocated `func()`
// closure. It wraps either a plain callback or a callback bound to one
// uint64 argument; components materialize the bound method value once (at
// construction or pool-entry birth) and pass copies of the token through
// the port chain, so the steady-state access path allocates nothing.
//
// The zero value is the "no completion" token (the old nil done):
// Valid() is false and Run() is a no-op.
//
// A token carries the Component that owns its callback, declared once at
// the Thunk/Bind birth site; ScheduleDone/AtDone attribute the resulting
// event to that owner.
// A token also carries an optional journey ID (see internal/journey):
// when a sampled access's completion chain is handed down the hierarchy,
// WithJourney stamps the token and each component reads Journey() to tag
// the spans it records. The owner and the journey ID share one 64-bit
// word, meta: the Component in the low byte, the ID in the high 32 bits,
// so stamping is one 8-byte update with no narrower store into the
// word's other half. Tokens are copied with 16-byte moves, and one that
// reloads a store still in flight stalls the host on store-to-load
// forwarding; pooled records therefore stamp their token once per use
// with Stamp, which leaves an unchanged ID unwritten. An unstamped
// token's ID is 0 ("not sampled"): the tracing-off path costs one
// predictable branch per component and zero allocations.
type Done struct {
	fn   func()
	afn  func(uint64)
	arg  uint64
	meta uint64
}

// jidShift places the journey ID in meta's high half.
const jidShift = 32

// Thunk wraps a plain callback as a completion token owned by comp.
// Wrapping is free; creating fn itself may allocate, so hot paths should
// create it once and reuse the token.
func Thunk(comp Component, fn func()) Done { return Done{fn: fn, meta: uint64(comp)} }

// Bind wraps a single-argument callback plus its argument as a completion
// token owned by comp. The callback is typically a method value stored
// once on the owning component; Bind itself never allocates.
func Bind(comp Component, fn func(uint64), arg uint64) Done {
	return Done{afn: fn, arg: arg, meta: uint64(comp)}
}

// Component returns the owner declared when the token was built.
func (d Done) Component() Component { return Component(d.meta) }

// Arg returns the bound argument (0 for plain-callback tokens).
func (d Done) Arg() uint64 { return d.arg }

// WithJourney returns a copy of the token stamped with a journey ID;
// components downstream read it back with Journey. Stamping jid 0 is the
// identity (an unsampled access).
func (d Done) WithJourney(jid uint32) Done {
	d.meta = d.meta&(1<<jidShift-1) | uint64(jid)<<jidShift
	return d
}

// Stamp sets the token's journey ID in place, as WithJourney would. It
// writes only when the ID changes: a pooled token restamped with the ID
// it holds (every token while tracing is off) sees no store, so copying
// it right afterwards reloads settled memory instead of stalling on a
// store still in flight.
func (d *Done) Stamp(jid uint32) {
	if d.Journey() != jid {
		*d = d.WithJourney(jid)
	}
}

// Journey returns the journey ID the token was stamped with (0 when the
// access is not sampled or tracing is off).
func (d Done) Journey() uint32 { return uint32(d.meta >> jidShift) }

// Valid reports whether the token carries a callback (the analogue of the
// old `done != nil` check).
func (d Done) Valid() bool { return d.fn != nil || d.afn != nil }

// Run invokes the wrapped callback, if any.
func (d Done) Run() {
	if d.fn != nil {
		d.fn()
		return
	}
	if d.afn != nil {
		d.afn(d.arg)
	}
}

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	// The timing wheel: bucket b holds, in seq order, the events due at
	// the one cycle t in [now, now+wheelSize) with t&wheelMask == b, as a
	// singly linked list through slab. Slot 0 of slab is the nil
	// sentinel; freed slots chain through next from free.
	slab    []event
	free    int32
	head    [wheelSize]int32
	tail    [wheelSize]int32
	occ     [wheelSize / 64]uint64 // bit b set iff bucket b is non-empty
	inWheel int

	// far is a flat 4-ary min-heap ordered by (when, seq) holding every
	// event due wheelSize or more cycles after now.
	far []event

	now   Time
	seq   uint64
	fired uint64
	prof  *Profile // nil unless EnableProfiling was called
}

// NewEngine returns an empty engine at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in cycles.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far, useful as a
// progress and determinism check.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// ScheduleSeq returns the sequence number the next scheduled event will
// receive. Because seq is the same-cycle tiebreaker and every Schedule/At
// consumes exactly one, a component that records ScheduleSeq right after
// scheduling an event can later prove "nothing else was scheduled in
// between" by comparing — the foundation of the device's order-safe
// completion batching.
func (e *Engine) ScheduleSeq() uint64 { return e.seq }

// PendingKey identifies one queued event by its total-order position.
type PendingKey struct {
	When Time
	Seq  uint64
}

// PendingKeys returns the (when, seq) identity of every queued event in
// ascending order, for inspecting what a run left queued.
func (e *Engine) PendingKeys() []PendingKey {
	out := make([]PendingKey, 0, e.Pending())
	for _, h := range e.head {
		for i := h; i != 0; i = e.slab[i].next {
			out = append(out, PendingKey{When: e.slab[i].when, Seq: e.slab[i].seq})
		}
	}
	for _, ev := range e.far {
		out = append(out, PendingKey{When: ev.when, Seq: ev.seq})
	}
	slices.SortFunc(out, func(a, b PendingKey) int {
		if a.When != b.When {
			if a.When < b.When {
				return -1
			}
			return 1
		}
		if a.Seq != b.Seq {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// AssertDrained returns nil when no events are pending, or an error
// naming the leftover count and the next due timestamp. Tests use it to
// prove a simulation wound down completely instead of abandoning queued
// work (e.g. the runner's per-spec engines after a measured window).
func (e *Engine) AssertDrained() error {
	n := e.Pending()
	if n == 0 {
		return nil
	}
	var next Time
	if e.inWheel > 0 {
		next = e.bucketTime(e.nextBucket())
	} else {
		next = e.far[0].when
	}
	return fmt.Errorf("sim: %d events still pending, next at cycle %d (now %d)", n, next, e.now)
}

// Schedule runs fn delay cycles from now, attributing the event to comp.
// A negative delay panics: the simulator never travels backwards.
func (e *Engine) Schedule(comp Component, delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(comp, e.now+delay, fn)
}

// At runs fn at the absolute cycle t, which must not be in the past,
// attributing the event to comp.
func (e *Engine) At(comp Component, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.push(t, e.seq, fn, nil, 0, comp)
	e.seq++
}

// ScheduleDone runs the completion token delay cycles from now. The event
// is attributed to the token's owner.
func (e *Engine) ScheduleDone(delay Time, d Done) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtDone(e.now+delay, d)
}

// AtDone runs the completion token at the absolute cycle t. The event is
// attributed to the token's owner.
func (e *Engine) AtDone(t Time, d Done) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.push(t, e.seq, d.fn, d.afn, d.arg, Component(d.meta))
	e.seq++
}

// push files an event in the wheel when it is due within wheelSize
// cycles and in the far heap otherwise. A wheel event's fields go
// straight into its slab slot, never through an event value (see the
// package comment).
func (e *Engine) push(when Time, seq uint64, fn func(), afn func(uint64), arg uint64, comp Component) {
	if when-e.now >= wheelSize {
		e.pushFar(event{when: when, seq: seq, fn: fn, afn: afn, arg: arg, comp: comp})
		return
	}
	i := e.slot()
	ev := &e.slab[i]
	ev.when, ev.seq, ev.fn, ev.afn, ev.arg, ev.comp, ev.next = when, seq, fn, afn, arg, comp, 0
	e.link(i, when)
}

// pushWheel files ev, an event migrating from the far heap, in its
// bucket.
func (e *Engine) pushWheel(ev event) {
	i := e.slot()
	e.slab[i] = ev
	e.link(i, ev.when)
}

// slot takes a free slab slot, growing the slab when none is free.
func (e *Engine) slot() int32 {
	if i := e.free; i != 0 {
		e.free = e.slab[i].next
		return i
	}
	if len(e.slab) == 0 {
		e.slab = append(e.slab, event{}) // the nil sentinel
	}
	e.slab = append(e.slab, event{})
	return int32(len(e.slab) - 1)
}

// link appends slot i, due at when, to its one-cycle bucket. Events
// reach a bucket in seq order (see the package comment), so appending
// keeps it sorted.
func (e *Engine) link(i int32, when Time) {
	b := int(when) & wheelMask
	if t := e.tail[b]; t == 0 {
		e.head[b] = i
		e.occ[b>>6] |= 1 << (b & 63)
	} else {
		e.slab[t].next = i
	}
	e.tail[b] = i
	e.inWheel++
}

// nextBucket returns the bucket of the earliest wheel event: the first
// occupied bucket at or after now's, wrapping once around the wheel. The
// wheel must not be empty.
func (e *Engine) nextBucket() int {
	s := int(e.now) & wheelMask
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for range len(e.occ) {
		w = (w + 1) % len(e.occ)
		if m := e.occ[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: empty timing wheel")
}

// bucketTime returns the one cycle bucket b holds.
func (e *Engine) bucketTime(b int) Time {
	return e.now + Time((b-int(e.now))&wheelMask)
}

// advance moves the clock forward to t and pulls every far event now
// inside the wheel's window into its bucket. It runs before any event at
// t fires, so migrated events precede every same-cycle push by seq.
func (e *Engine) advance(t Time) {
	e.now = t
	for len(e.far) > 0 && e.far[0].when-t < wheelSize {
		e.pushWheel(e.popFar())
	}
}

// pushFar inserts ev into the far heap, sifting up through 4-ary
// parents. Shifting occupied slots down and writing ev once at its final
// position keeps the inner loop to one comparison and one copy per level.
func (e *Engine) pushFar(ev event) {
	e.far = append(e.far, ev)
	q := e.far
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// popFar removes and returns the far heap's minimum event.
func (e *Engine) popFar() event {
	q := e.far
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop callback references so the GC can reclaim them
	e.far = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown re-inserts ev from the far heap's root, descending to the
// smallest of up to four children per level.
func (e *Engine) siftDown(ev event) {
	q := e.far
	n := len(q)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].less(q[min]) {
				min = c
			}
		}
		if !q[min].less(ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
}

// stepBy executes the earliest pending event if it is due at or before
// limit and reports whether it did. Fusing the deadline check into the
// step lets RunUntil find the next event once per dispatch.
func (e *Engine) stepBy(limit Time) bool {
	if e.inWheel == 0 {
		if len(e.far) == 0 || e.far[0].when > limit {
			return false
		}
		e.advance(e.far[0].when)
	}
	b := e.nextBucket()
	when := e.bucketTime(b)
	if when > limit {
		return false
	}
	if when != e.now {
		e.advance(when)
	}
	i := e.head[b]
	ev := &e.slab[i]
	fn, afn, arg, comp := ev.fn, ev.afn, ev.arg, ev.comp
	if ev.next == 0 {
		e.head[b], e.tail[b] = 0, 0
		e.occ[b>>6] &^= 1 << (b & 63)
	} else {
		e.head[b] = ev.next
	}
	// Drop only the callback references, so the GC can reclaim a one-off
	// closure; the slot's other fields are overwritten when it is reused.
	ev.fn, ev.afn, ev.next = nil, nil, e.free
	e.free = i
	e.inWheel--
	e.fired++
	if e.prof != nil {
		e.prof.record(comp)
	}
	if fn != nil {
		fn()
	} else if afn != nil {
		afn(arg)
	}
	return true
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool { return e.stepBy(math.MaxInt64) }

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.stepBy(math.MaxInt64) {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events queued. The clock is then advanced to deadline (even when the
// last fired event was earlier), so subsequent Schedule calls are
// relative to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepBy(deadline) {
	}
	if e.now < deadline {
		e.advance(deadline)
	}
}

// RunWhile executes events until cond() reports false or the queue drains.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Ticker invokes fn every period cycles until Stop is called. The first
// tick fires one period from the time Tick is created. The rescheduling
// callback is bound once at construction and reused every period, so a
// steady ticker contributes zero allocations per tick. Every tick event
// is attributed to the component declared at construction.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	tickFn  func() // t.tick, materialized once
	comp    Component
	stopped bool
}

// NewTicker schedules fn to run every period cycles, attributing tick
// events to comp. period must be positive.
func (e *Engine) NewTicker(comp Component, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn, comp: comp}
	t.tickFn = t.tick
	e.Schedule(comp, period, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.engine.Schedule(t.comp, t.period, t.tickFn)
	}
}

// Stop cancels future ticks. It is safe to call from within fn.
func (t *Ticker) Stop() { t.stopped = true }
