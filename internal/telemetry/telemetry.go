// Package telemetry is the sim-time tracer of the simulator: it records
// spans, instant events, and counter samples keyed by engine cycles
// (never wall clock). Metric names and values are not its business:
// kernel.DumpStats walks the components' stats.Counters directly.
//
// Traces serialize to the Chrome trace-event JSON format, which
// ui.perfetto.dev loads directly. Timestamps are emitted in raw engine
// cycles (the viewer labels them as microseconds; at the simulated 3 GHz
// one displayed "us" is one cycle, i.e. 1/3 ns — see DESIGN.md §8).
//
// Everything is nil-safe: a nil *Trace hands out nil *Tracers, and every
// Tracer/Span method no-ops on a nil receiver, so instrumented code runs
// with zero overhead when telemetry is disabled (a single pointer test
// on the hot paths; see BenchmarkNilTracer*).
//
// Determinism: each simulation run owns one Tracer, recorded into only
// from that run's single-threaded event engine; the parent Trace emits
// tracers in creation order (plan order, not completion order), so the
// serialized bytes are identical for any worker count.
package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"prosper/internal/sim"
)

// Arg is one key/value attribute attached to a span or instant event.
type Arg struct {
	Key   string
	val   int64
	str   string
	isStr bool
}

// I builds an integer-valued attribute.
func I(key string, v int64) Arg { return Arg{Key: key, val: v} }

// U builds an integer attribute from an unsigned counter value.
func U(key string, v uint64) Arg { return Arg{Key: key, val: int64(v)} }

// S builds a string-valued attribute.
func S(key, v string) Arg { return Arg{Key: key, str: v, isStr: true} }

// Track is one named horizontal lane inside a run's trace (a "thread" in
// Chrome trace terms). The zero value is valid and names the run's
// default lane.
type Track struct{ tid int }

// event is one recorded trace event. ph follows the Chrome trace-event
// phase codes: 'X' complete span, 'i' instant, 'C' counter, 'M' metadata,
// and 's'/'t'/'f' flow start/step/finish (id carries the flow identity).
// args is a window into one of the tracer's arg blocks.
type event struct {
	ph   byte
	tid  int
	name string
	ts   sim.Time
	dur  sim.Time
	id   uint64
	args []Arg
}

// Storage block sizes. A tracer's first blocks are small, so a tracer
// holding a handful of events stays near a kilobyte; each new block
// doubles up to the cap, so a long run allocates once per thousand
// events and never moves or copies what it already recorded.
const (
	minEventBlock = 8
	maxEventBlock = 1024
	minArgBlock   = 8
	maxArgBlock   = 2048
)

// nextBlock returns the capacity of the block after one of capacity
// prev: double it, within [lo, hi].
func nextBlock(prev, lo, hi int) int {
	return min(max(2*prev, lo), hi)
}

// Tracer records one simulation run's telemetry. It is not safe for
// concurrent use — by construction a run's tracer is only touched from
// that run's single-threaded sim engine, which is what keeps event order
// deterministic.
type Tracer struct {
	pid     int
	eng     *sim.Engine
	nextTID int
	full    [][]event // filled event blocks, in record order
	cur     []event   // the block being filled
	args    []Arg     // the arg block being filled
}

// add records e with a copy of args, so callers' variadic args never
// escape to the heap.
func (t *Tracer) add(e event, args []Arg) {
	if len(args) > 0 {
		if cap(t.args)-len(t.args) < len(args) {
			t.args = make([]Arg, 0, max(nextBlock(cap(t.args), minArgBlock, maxArgBlock), len(args)))
		}
		n := len(t.args)
		t.args = append(t.args, args...)
		e.args = t.args[n:len(t.args):len(t.args)]
	}
	if len(t.cur) == cap(t.cur) {
		if t.cur != nil {
			t.full = append(t.full, t.cur)
		}
		t.cur = make([]event, 0, nextBlock(cap(t.cur), minEventBlock, maxEventBlock))
	}
	t.cur = append(t.cur, e)
}

// Enabled reports whether the tracer actually records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Bind attaches the engine whose clock timestamps every event. The
// kernel calls it at boot; events recorded before Bind stamp cycle 0.
func (t *Tracer) Bind(eng *sim.Engine) {
	if t == nil {
		return
	}
	t.eng = eng
}

func (t *Tracer) now() sim.Time {
	if t.eng == nil {
		return 0
	}
	return t.eng.Now()
}

// Track allocates a named lane and emits its thread_name metadata.
func (t *Tracer) Track(name string) Track {
	if t == nil {
		return Track{}
	}
	t.nextTID++
	tid := t.nextTID
	t.add(event{ph: 'M', name: "thread_name", tid: tid}, []Arg{S("name", name)})
	return Track{tid: tid}
}

// Span is an in-progress interval opened by Begin. The zero value (from
// a nil tracer) is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	track Track
	name  string
	start sim.Time
}

// Begin opens a span on the track at the current sim time.
func (t *Tracer) Begin(track Track, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: track, name: name, start: t.now()}
}

// End closes the span at the current sim time, attaching args.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.add(event{
		ph: 'X', tid: s.track.tid, name: s.name,
		ts: s.start, dur: s.t.now() - s.start,
	}, args)
}

// SpanAt records a complete span with an explicit start and duration
// instead of the engine clock. Post-hoc exporters (internal/journey)
// use it to serialize spans whose cycles were recorded during the run.
func (t *Tracer) SpanAt(track Track, name string, start, dur sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.add(event{ph: 'X', tid: track.tid, name: name, ts: start, dur: dur}, args)
}

// FlowStart opens a flow arrow (Chrome phase 's') with identity id at an
// explicit timestamp. Perfetto draws an arrow from here through every
// FlowStep with the same id to the matching FlowEnd, linking related
// spans across tracks; the (ts, track) pair should sit inside the span
// the arrow departs from.
func (t *Tracer) FlowStart(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.add(event{ph: 's', tid: track.tid, name: name, ts: ts, id: id}, nil)
}

// FlowStep continues flow id through an intermediate span ('t').
func (t *Tracer) FlowStep(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.add(event{ph: 't', tid: track.tid, name: name, ts: ts, id: id}, nil)
}

// FlowEnd terminates flow id ('f'). Emitted with binding point "e"
// (enclosing slice) so the arrowhead attaches to the span containing
// the timestamp, per the trace-event spec.
func (t *Tracer) FlowEnd(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.add(event{ph: 'f', tid: track.tid, name: name, ts: ts, id: id}, nil)
}

// Instant records a point event on the track.
func (t *Tracer) Instant(track Track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.add(event{ph: 'i', tid: track.tid, name: name, ts: t.now()}, args)
}

// Counter records one sample of a counter-track series; Perfetto renders
// successive samples of the same name as a stepped area chart.
func (t *Tracer) Counter(track Track, name, series string, v int64) {
	if t == nil {
		return
	}
	t.add(event{ph: 'C', tid: track.tid, name: name, ts: t.now()}, []Arg{I(series, v)})
}

// CounterProbe describes one occupancy series to sample periodically:
// Get is polled at every sampling tick and must only read state.
type CounterProbe struct {
	Track  Track
	Name   string // counter-track name, e.g. "nvm.queue"
	Series string // series key inside the track, e.g. "writes"
	Get    func() int64
}

// Sample records one sample from every probe at the current sim time.
func (t *Tracer) Sample(probes []CounterProbe) {
	if t == nil {
		return
	}
	for _, p := range probes {
		t.Counter(p.Track, p.Name, p.Series, p.Get())
	}
}

// Events returns how many trace events the tracer holds (tests).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.blocks() {
		n += len(b)
	}
	return n
}

// blocks returns the tracer's event blocks in record order.
func (t *Tracer) blocks() [][]event {
	return append(t.full[:len(t.full):len(t.full)], t.cur)
}

// Trace is the top-level collection: one Tracer per simulation run, each
// rendered as its own process lane ("pid") in Perfetto. NewTracer is
// safe for concurrent use; recording into a Tracer is single-run-local.
type Trace struct {
	mu      sync.Mutex
	tracers []*Tracer
}

// NewTrace returns an empty trace collection.
func NewTrace() *Trace { return &Trace{} }

// NewTracer allocates the next run lane. Lanes are numbered in call
// order, so callers creating tracers in plan order get plan-ordered
// output regardless of run interleaving. A nil Trace returns a nil
// (disabled) Tracer.
func (tr *Trace) NewTracer(name string) *Tracer {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &Tracer{pid: len(tr.tracers) + 1}
	t.add(event{ph: 'M', name: "process_name"}, []Arg{S("name", name)})
	tr.tracers = append(tr.tracers, t)
	return t
}

// WriteJSON serializes the whole trace as Chrome trace-event JSON
// (ui.perfetto.dev opens it directly). Output is byte-deterministic:
// tracers in creation order, each tracer's events in record order. Each
// event is appended into one reused buffer (strconv.AppendQuote equals
// the %q/strconv.Quote rendering), so writing allocates per trace, not
// per event.
func (tr *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	var buf []byte
	sep := "\n"
	for _, t := range tr.tracers {
		for _, blk := range t.blocks() {
			for i := range blk {
				buf = appendEvent(append(buf[:0], sep...), t.pid, &blk[i])
				bw.Write(buf)
				sep = ",\n"
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func appendEvent(b []byte, pid int, e *event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.name)
	b = append(b, `,"ph":"`...)
	b = append(b, e.ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.tid), 10)
	if e.ph != 'M' {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, e.ts, 10)
	}
	switch e.ph {
	case 'X':
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, e.dur, 10)
	case 'i':
		// Scope "t": the instant marker spans its thread lane only.
		b = append(b, `,"s":"t"`...)
	case 's', 't', 'f':
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, e.id, 10)
		if e.ph == 'f' {
			b = append(b, `,"bp":"e"`...)
		}
	}
	if len(e.args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.args {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			if a.isStr {
				b = strconv.AppendQuote(b, a.str)
			} else {
				b = strconv.AppendInt(b, a.val, 10)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}
